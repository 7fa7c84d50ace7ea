package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/datatype"
	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/simnet"
)

// These tests run the real collective code on the simulated wormhole mesh
// and check two things at once: the data still arrives intact (carry mode),
// and the virtual completion times agree with the paper's closed-form cost
// model wherever the model is exact (conflict-free linear arrays and
// physical rows/columns).

// simT runs a collective body on an R×C simulated mesh and returns the
// completion time.
func simT(t *testing.T, rows, cols int, m model.Machine, carry bool, fn func(c Ctx) error) float64 {
	t.Helper()
	res, err := simnet.Run(simnet.Config{Rows: rows, Cols: cols, Machine: m, CarryData: carry},
		func(ep *simnet.Endpoint) error {
			c := NewCtx(ep, 1)
			mach := ep.Machine()
			c.Machine = &mach
			return fn(c)
		})
	if err != nil {
		t.Fatal(err)
	}
	return res.Time
}

func plainMachine() model.Machine {
	return model.Machine{Alpha: 10, Beta: 1, Gamma: 0.25, LinkExcess: 1}
}

// TestSimMatchesModelMST: MST broadcast on a conflict-free linear array
// takes exactly ⌈log p⌉(α+nβ).
func TestSimMatchesModelMST(t *testing.T) {
	m := plainMachine()
	for _, p := range []int{2, 5, 8, 13, 16} {
		for _, n := range []int{0, 64, 1000} {
			s := model.MSTShape(group.Linear(p))
			got := simT(t, 1, p, m, false, func(c Ctx) error {
				return c.Run(Buffers{})(BuildBcast(c, s, 0, n, 1))
			})
			want := m.Cost(model.Bcast, s, float64(n))
			if math.Abs(got-want) > 1e-9*math.Max(1, want) {
				t.Errorf("MST bcast p=%d n=%d: sim %.6g, model %.6g", p, n, got, want)
			}
		}
	}
}

// TestSimMatchesModelBucket: the pure scatter/collect broadcast on a linear
// array matches (⌈log p⌉ + p−1)α + 2((p−1)/p)nβ when n divides evenly.
func TestSimMatchesModelBucket(t *testing.T) {
	m := plainMachine()
	for _, p := range []int{2, 4, 8} {
		n := 64 * p // divisible: every bucket equal, model exact
		s := model.BucketShape(group.Linear(p))
		got := simT(t, 1, p, m, false, func(c Ctx) error {
			return c.Run(Buffers{})(BuildBcast(c, s, 0, n, 1))
		})
		want := m.Cost(model.Bcast, s, float64(n))
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("scatter/collect bcast p=%d n=%d: sim %.6g, model %.6g", p, n, got, want)
		}
	}
}

// TestSimMatchesModelAllReduce: bucket reduce-scatter + collect matches
// 2(p−1)α + 2((p−1)/p)nβ + ((p−1)/p)nγ on a linear array.
func TestSimMatchesModelAllReduce(t *testing.T) {
	m := plainMachine()
	for _, p := range []int{2, 4, 8} {
		n := 16 * p
		s := model.BucketShape(group.Linear(p))
		got := simT(t, 1, p, m, false, func(c Ctx) error {
			return c.Run(Buffers{})(BuildAllReduce(c, s, n, datatype.Uint8, datatype.Sum))
		})
		want := m.Cost(model.AllReduce, s, float64(n))
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("bucket allreduce p=%d n=%d: sim %.6g, model %.6g", p, n, got, want)
		}
	}
}

// TestSimMatchesModelMeshCollect: §7.1 — bucket collect within physical
// rows then columns of a mesh has latency (r+c−2)α, β term conflict-free.
func TestSimMatchesModelMeshCollect(t *testing.T) {
	m := plainMachine()
	rows, cols := 4, 8
	p := rows * cols
	n := p * 8
	s := model.BucketShape(group.Mesh2D(rows, cols))
	counts := equalCounts(n, p)
	got := simT(t, rows, cols, m, false, func(c Ctx) error {
		return c.Run(Buffers{})(BuildCollect(c, s, counts, 1))
	})
	want := m.Cost(model.Collect, s, float64(n))
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("mesh collect %dx%d: sim %.6g, model %.6g", rows, cols, got, want)
	}
	// And the α count is (r+c-2) = 10 at n≈0.
	got0 := simT(t, rows, cols, m, false, func(c Ctx) error {
		return c.Run(Buffers{})(BuildCollect(c, s, equalCounts(0, p), 1))
	})
	if math.Abs(got0-float64(rows+cols-2)*m.Alpha) > 1e-9 {
		t.Errorf("mesh collect latency: sim %.6g, want %.6g", got0, float64(rows+cols-2)*m.Alpha)
	}
}

// TestSimHybridCrossover reproduces the phenomenon of Fig. 2 in the
// simulator: on a 30-node linear array with Paragon-like parameters, MST
// wins for short vectors, a hybrid wins in the middle, scatter/collect wins
// for long vectors.
func TestSimHybridCrossover(t *testing.T) {
	m := model.ParagonLike()
	m.StepOverhead = 0
	m.LinkExcess = 1
	l := group.Linear(30)
	mst := model.MSTShape(l)
	sc := model.BucketShape(l)
	hybrid := model.Shape{Dims: []model.Dim{
		{Size: 5, Stride: 1, Conflict: 1},
		{Size: 6, Stride: 5, Conflict: 5},
	}, ShortFrom: 2} // (5x6, SSCC)
	run := func(s model.Shape, n int) float64 {
		return simT(t, 1, 30, m, false, func(c Ctx) error {
			return c.Run(Buffers{})(BuildBcast(c, s, 0, n, 1))
		})
	}
	short, mid, long := 8, 65536, 4<<20
	if a, b := run(mst, short), run(hybrid, short); a >= b {
		t.Errorf("short vectors: MST %.3g should beat hybrid %.3g", a, b)
	}
	if a, b := run(hybrid, mid), run(mst, mid); a >= b {
		t.Errorf("medium vectors: hybrid %.3g should beat MST %.3g", a, b)
	}
	if a, b := run(sc, long), run(mst, long); a >= b {
		t.Errorf("long vectors: scatter/collect %.3g should beat MST %.3g", a, b)
	}
}

// TestSimCarryCorrectness: payloads arrive intact through the simulator for
// a hybrid with every stage type, including on a 2-D mesh.
func TestSimCarryCorrectness(t *testing.T) {
	m := plainMachine()
	l := group.Mesh2D(3, 4)
	for _, s := range shapesFor(l, 2) {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			const count = 60
			want := make([]byte, count)
			fill(want, 5)
			simT(t, 3, 4, m, true, func(c Ctx) error {
				buf := make([]byte, count)
				if c.Me == 5 {
					copy(buf, want)
				}
				if err := c.Run(Buffers{Buf: buf})(BuildBcast(c, s, 5, count, 1)); err != nil {
					return err
				}
				if !bytes.Equal(buf, want) {
					return fmt.Errorf("rank %d: wrong payload", c.Me)
				}
				in := make([]int64, 7)
				for i := range in {
					in[i] = int64(c.Me ^ i)
				}
				ab, tb := make([]byte, 56), make([]byte, 56)
				datatype.PutInt64s(ab, in)
				if err := c.Run(Buffers{Buf: ab, Tmp: tb})(BuildAllReduce(c, s, 7, datatype.Int64, datatype.Sum)); err != nil {
					return err
				}
				got := datatype.Int64s(ab)
				for i := range got {
					var w int64
					for r := 0; r < 12; r++ {
						w += int64(r ^ i)
					}
					if got[i] != w {
						return fmt.Errorf("rank %d: allreduce elem %d = %d, want %d", c.Me, i, got[i], w)
					}
				}
				return nil
			})
		})
	}
}

// TestStepOverheadCharged: per-recursion-level software overhead shows up
// in simulated time exactly as the model prices it — ⌈log p⌉ extra δ on
// the MST critical path (the §7.2 recursion-cost effect) — and the bucket
// primitives do not pay it.
func TestStepOverheadCharged(t *testing.T) {
	m := plainMachine()
	s := model.MSTShape(group.Linear(4))
	base := simT(t, 1, 4, m, false, func(c Ctx) error {
		return c.Run(Buffers{})(BuildBcast(c, s, 0, 100, 1))
	})
	m.StepOverhead = 3
	with := simT(t, 1, 4, m, false, func(c Ctx) error {
		return c.Run(Buffers{})(BuildBcast(c, s, 0, 100, 1))
	})
	if diff := with - base; math.Abs(diff-2*3) > 1e-9 {
		t.Errorf("step overhead on MST path = %v, want %v", diff, 2*3)
	}
	long := model.BucketShape(group.Linear(4))
	b0 := simT(t, 1, 4, plainMachine(), false, func(c Ctx) error {
		counts := equalCounts(400, 4)
		return c.Run(Buffers{})(BuildCollect(c, long, counts, 1))
	})
	b1 := simT(t, 1, 4, m, false, func(c Ctx) error {
		counts := equalCounts(400, 4)
		return c.Run(Buffers{})(BuildCollect(c, long, counts, 1))
	})
	if b0 != b1 {
		t.Errorf("bucket collect charged step overhead: %v vs %v", b0, b1)
	}
}
