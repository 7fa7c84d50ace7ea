package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/simnet"
)

// Hypercube experiments (§8, §11): the iPSC/860 version of InterCom used
// hypercube-specific algorithms including the EDST broadcast. On a native
// simulated hypercube we compare four broadcasts across message lengths:
//
//   - MST (the short-vector primitive),
//   - scatter/collect (the library's long-vector default),
//   - EDST trees: our direct implementation of the Ho–Johnsson
//     edge-disjoint spanning tree structure, without the block-rotation
//     pipeline of [7] — demonstrating §8's "generally difficult to
//     implement" verdict, and
//   - Gray-pipelined: the pipelined broadcast over a Gray-code
//     Hamiltonian ring, which realizes the theoretical ≈2× long-vector
//     advantage on the cube's conflict-free edges.

// cubeRun times one broadcast body on a native hypercube of p nodes.
func cubeRun(p int, m model.Machine, noise float64, fn func(c core.Ctx) error) (float64, error) {
	res, err := simnet.Run(simnet.Config{
		Rows: 1, Cols: p, Hypercube: true, Machine: m,
		NoiseAmp: noise * m.Alpha, NoiseSeed: 7,
	}, func(ep *simnet.Endpoint) error {
		c := core.NewCtx(ep, 1)
		mach := ep.Machine()
		c.Machine = &mach
		return fn(c)
	})
	if err != nil {
		return 0, err
	}
	return res.Time, nil
}

// CubeBroadcasts compares the four hypercube broadcasts on a native
// 2^d-node cube across message lengths, with optional OS noise (in
// multiples of α).
func CubeBroadcasts(p int, lengths []int, noise float64) (Table, error) {
	if p <= 0 || p&(p-1) != 0 {
		return Table{}, fmt.Errorf("harness: cube size %d is not a power of two", p)
	}
	m := model.ParagonLike()
	mst := model.MSTShape(group.Linear(p))
	sc := model.BucketShape(group.Linear(p))
	gray := group.GrayRing(p)
	t := Table{
		Title: fmt.Sprintf("§8/§11: broadcast on a native %d-node simulated hypercube (noise %.0f×α), time (s)",
			p, noise),
		Header: []string{"bytes", "MST", "scatter/collect", "EDST trees", "Gray-pipelined"},
		Notes: []string{
			"EDST trees: Ho–Johnsson edge-disjoint structure without the [7] block-rotation pipeline",
			"Gray-pipelined: pipelined broadcast over a Gray-code Hamiltonian ring (conflict-free cube edges)",
		},
	}
	for _, n := range lengths {
		row := []string{bytesLabel(n)}
		runs := []func(c core.Ctx) error{
			func(c core.Ctx) error { return c.Run(core.Buffers{})(core.BuildBcast(c, mst, 0, n, 1)) },
			func(c core.Ctx) error { return c.Run(core.Buffers{})(core.BuildBcast(c, sc, 0, n, 1)) },
			func(c core.Ctx) error { return c.Run(core.Buffers{})(core.BuildEDSTBcast(c, 0, n, 1)) },
			func(c core.Ctx) error {
				g := c
				g.Members = gray
				g.Me = group.Index(gray, c.EP.Rank())
				return g.Run(core.Buffers{})(core.BuildPipelinedBcast(g, 0, n, 1, core.OptimalBlocks(m, p, n)))
			},
		}
		for _, fn := range runs {
			v, err := cubeRun(p, m, noise, fn)
			if err != nil {
				return t, err
			}
			row = append(row, secs(v))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
