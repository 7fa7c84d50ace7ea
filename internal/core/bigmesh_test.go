package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/simnet"
)

// Full-scale functional tests: the paper's actual meshes (16×32 and 15×30)
// with payloads carried and verified. These prove the planner's chosen
// hybrids are correct at the scale the experiments run at, not just on the
// small groups of the exhaustive tests.

func TestBigMeshBroadcast15x30(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale mesh test")
	}
	const rows, cols, count = 15, 30, 2048
	m := model.ParagonLike()
	pl := model.NewPlanner(m)
	shape, _ := pl.Best(model.Bcast, group.Mesh2D(rows, cols), count)
	want := make([]byte, count)
	fill(want, 17)
	_, err := simnet.Run(simnet.Config{Rows: rows, Cols: cols, Machine: m, CarryData: true},
		func(ep *simnet.Endpoint) error {
			c := NewCtx(ep, 1)
			buf := make([]byte, count)
			if ep.Rank() == 17 {
				copy(buf, want)
			}
			if err := c.Run(Buffers{Buf: buf})(BuildBcast(c, shape, 17, count, 1)); err != nil {
				return err
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("node %d: corrupt payload under %v", ep.Rank(), shape)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBigMeshCollect16x32(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale mesh test")
	}
	const rows, cols = 16, 32
	p := rows * cols
	counts := equalCounts(3*p, p) // 3 bytes per node
	offs := prefixOffsets(counts)
	m := model.ParagonLike()
	pl := model.NewPlanner(m)
	shape, _ := pl.Best(model.Collect, group.Mesh2D(rows, cols), offs[p])
	_, err := simnet.Run(simnet.Config{Rows: rows, Cols: cols, Machine: m, CarryData: true},
		func(ep *simnet.Endpoint) error {
			c := NewCtx(ep, 1)
			buf := make([]byte, offs[p])
			fill(buf[offs[ep.Rank()]:offs[ep.Rank()+1]], ep.Rank())
			if err := c.Run(Buffers{Buf: buf})(BuildCollect(c, shape, counts, 1)); err != nil {
				return err
			}
			for r := 0; r < p; r++ {
				w := make([]byte, counts[r])
				fill(w, r)
				if !bytes.Equal(buf[offs[r]:offs[r+1]], w) {
					return fmt.Errorf("node %d: segment %d corrupt under %v", ep.Rank(), r, shape)
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}
