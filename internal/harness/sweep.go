package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/simnet"
)

// Sweep is the library-level claim of the paper's title made testable: for
// every collective of Table 1, across message lengths on a given mesh, the
// automatically selected hybrid must ride the lower envelope of the fixed
// algorithms. One table per collective: short, long, auto, the chosen
// shape, and auto's slack versus the better fixed algorithm.

// runCollective times one collective under an explicit shape on a
// simulated mesh.
func runCollective(coll model.Collective, rows, cols, n int, m model.Machine, s model.Shape) (float64, error) {
	p := rows * cols
	res, err := simnet.Run(simnet.Config{Rows: rows, Cols: cols, Machine: m},
		func(ep *simnet.Endpoint) error {
			c := core.NewCtx(ep, 1)
			mach := ep.Machine()
			c.Machine = &mach
			counts := core.EqualCounts(n, p)
			switch coll {
			case model.Bcast:
				return c.Run(core.Buffers{})(core.BuildBcast(c, s, 0, n, 1))
			case model.Reduce:
				return c.Run(core.Buffers{})(core.BuildReduce(c, s, 0, n, datatype.Uint8, datatype.Sum))
			case model.Scatter:
				return c.Run(core.Buffers{})(core.BuildScatter(c, s, 0, counts, 1))
			case model.Gather:
				return c.Run(core.Buffers{})(core.BuildGather(c, s, 0, counts, 1))
			case model.Collect:
				return c.Run(core.Buffers{})(core.BuildCollect(c, s, counts, 1))
			case model.ReduceScatter:
				return c.Run(core.Buffers{})(core.BuildReduceScatter(c, s, counts, datatype.Uint8, datatype.Sum))
			case model.AllToAll:
				return c.Run(core.Buffers{})(core.BuildAllToAll(c, s, n/p, 1))
			default:
				return c.Run(core.Buffers{})(core.BuildAllReduce(c, s, n, datatype.Uint8, datatype.Sum))
			}
		})
	if err != nil {
		return 0, err
	}
	return res.Time, nil
}

// Sweep produces the envelope table for one collective on a rows×cols
// simulated mesh.
func Sweep(coll model.Collective, rows, cols int, lengths []int) (Table, error) {
	m := model.ParagonLike()
	pl := model.NewPlanner(m)
	layout := group.Mesh2D(rows, cols)
	t := Table{
		Title:  fmt.Sprintf("envelope: %v on %dx%d simulated mesh, time (s)", coll, rows, cols),
		Header: []string{"bytes", "short (MST)", "long (bucket)", "auto", "auto shape", "slack"},
	}
	if coll == model.AllToAll {
		t.Notes = append(t.Notes,
			"complete-exchange rows round the vector up to a whole equal block per pair")
	}
	for _, n := range lengths {
		if coll == model.AllToAll {
			n = a2aBytes(n, rows*cols)
		}
		short, err := runCollective(coll, rows, cols, n, m, model.MSTShape(layout))
		if err != nil {
			return t, fmt.Errorf("%v short n=%d: %w", coll, n, err)
		}
		long, err := runCollective(coll, rows, cols, n, m, model.BucketShape(layout))
		if err != nil {
			return t, fmt.Errorf("%v long n=%d: %w", coll, n, err)
		}
		s, _ := pl.Best(coll, layout, n)
		auto, err := runCollective(coll, rows, cols, n, m, s)
		if err != nil {
			return t, fmt.Errorf("%v auto n=%d: %w", coll, n, err)
		}
		best := short
		if long < best {
			best = long
		}
		t.Rows = append(t.Rows, []string{
			bytesLabel(n), secs(short), secs(long), secs(auto), s.String(),
			fmt.Sprintf("%+.1f%%", (auto/best-1)*100),
		})
	}
	return t, nil
}
