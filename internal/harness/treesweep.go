package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/simnet"
)

// TreeSweep compares collectives on a simulated N-level machine at
// increasing declared depth: the same physical tree (racks containing
// nodes containing sockets, each block with one shared uplink/downlink)
// is attacked by the structure-blind flat hybrids, by the two-level
// composition over the coarsest partition alone, and by the full
// recursive hierarchy — the experiment that motivates generalizing the
// paper's two-level schedule.

// TreeNet describes a simulated N-level machine for the sweep: P ranks in
// nested blocks of the given Sizes (coarsest first), with Machines[l]
// pricing messages that first cross a level-l boundary and the last entry
// pricing messages inside one deepest block. Place maps ranks to blocks:
// Blocks is the nested block-major convention, RoundRobin deals ranks
// across the deepest blocks cyclically (the placement structure-blind
// flat planning cannot see).
type TreeNet struct {
	P        int
	Sizes    []int
	Machines []model.Machine
	Place    Placement
}

// assigns returns the per-level rank→block maps, coarsest first. Under
// RoundRobin rank r occupies physical slot (r mod B)·d + ⌊r/B⌋ of the
// block-major layout (B deepest blocks of d ranks), so consecutive ranks
// land in distinct deepest blocks while the levels still nest.
func (tn TreeNet) assigns() [][]int {
	d := tn.Sizes[len(tn.Sizes)-1]
	b := tn.P / d
	of := make([][]int, len(tn.Sizes))
	for l, sz := range tn.Sizes {
		lv := make([]int, tn.P)
		for r := 0; r < tn.P; r++ {
			phys := r
			if tn.Place == RoundRobin && r < b*d {
				phys = (r%b)*d + r/b
			}
			lv[r] = phys / sz
		}
		of[l] = lv
	}
	return of
}

// runTree times one collective on the simulated tree under shape s,
// declaring the coarsest depth levels of the partition to the library
// (depth 0 declares nothing: the flat baseline). unstriped disables the
// striped leader phase of the hierarchical all-reduce.
func runTree(tn TreeNet, coll model.Collective, depth, n int, s model.Shape, unstriped bool) (float64, error) {
	of := tn.assigns()
	levels := make([]simnet.Level, len(tn.Sizes))
	for l := range tn.Sizes {
		levels[l] = simnet.Level{Of: of[l], Alpha: tn.Machines[l].Alpha, Beta: tn.Machines[l].Beta}
	}
	local := tn.Machines[len(tn.Sizes)]
	var topo group.Topology
	var hier model.Hierarchy
	if depth > 0 {
		t, err := group.NewTopology(of[:depth]...)
		if err != nil {
			return 0, err
		}
		topo = t
		ms := append([]model.Machine(nil), tn.Machines[:depth]...)
		hier = model.Hierarchy{Machines: append(ms, local)}
	}
	res, err := simnet.Run(simnet.Config{
		Rows: 1, Cols: tn.P, Machine: local, Levels: levels,
	}, func(ep *simnet.Endpoint) error {
		c := core.NewCtx(ep, 1)
		mach := local
		c.Machine = &mach
		if depth > 0 {
			c.Topology = &topo
			c.Hierarchy = &hier
			c.Unstriped = unstriped
		}
		counts := core.EqualCounts(n, tn.P)
		switch coll {
		case model.Bcast:
			return c.Run(core.Buffers{})(core.BuildBcast(c, s, 0, n, 1))
		case model.Reduce:
			return c.Run(core.Buffers{})(core.BuildReduce(c, s, 0, n, datatype.Uint8, datatype.Sum))
		case model.Collect:
			return c.Run(core.Buffers{})(core.BuildCollect(c, s, counts, 1))
		case model.ReduceScatter:
			return c.Run(core.Buffers{})(core.BuildReduceScatter(c, s, counts, datatype.Uint8, datatype.Sum))
		case model.AllToAll:
			return c.Run(core.Buffers{})(core.BuildAllToAll(c, s, n/tn.P, 1))
		default:
			return c.Run(core.Buffers{})(core.BuildAllReduce(c, s, n, datatype.Uint8, datatype.Sum))
		}
	})
	if err != nil {
		return 0, err
	}
	return res.Time, nil
}

// TreePoint times one collective at one length on the N-level machine,
// returning the flat auto hybrid (planned structure-blind with the
// coarsest machine, §9's policy for undeclared structure), the two-level
// composition over the coarsest partition, and the full recursive
// hierarchy.
func TreePoint(tn TreeNet, coll model.Collective, n int) (flatAuto, hier2, hierN float64, err error) {
	if coll == model.AllToAll {
		n = a2aBytes(n, tn.P)
	}
	pl := model.NewPlanner(tn.Machines[0])
	s, _ := pl.Best(coll, group.Linear(tn.P), n)
	if flatAuto, err = runTree(tn, coll, 0, n, s, false); err != nil {
		return
	}
	if hier2, err = runTree(tn, coll, 1, n, model.HierShape(), false); err != nil {
		return
	}
	if hierN = hier2; len(tn.Sizes) > 1 {
		hierN, err = runTree(tn, coll, len(tn.Sizes), n, model.HierShape(), false)
	}
	return
}

// StripedPoint times the hierarchical all-reduce at full depth with and
// without the striped (reduce-scatter based) leader phase.
func StripedPoint(tn TreeNet, n int) (striped, unstriped float64, err error) {
	if striped, err = runTree(tn, model.AllReduce, len(tn.Sizes), n, model.HierShape(), false); err != nil {
		return
	}
	unstriped, err = runTree(tn, model.AllReduce, len(tn.Sizes), n, model.HierShape(), true)
	return
}

// TreeSweep produces the depth-comparison table for one collective on the
// N-level machine.
func TreeSweep(tn TreeNet, coll model.Collective, lengths []int) (Table, error) {
	t := Table{
		Title: fmt.Sprintf("tree: %v on %d ranks in blocks %v (%s placement), time (s)",
			coll, tn.P, tn.Sizes, tn.Place),
		Header: []string{"bytes", "flat auto", "2-level", fmt.Sprintf("%d-level", len(tn.Sizes)+1), "speedup"},
		Notes: []string{"flat auto plans the group as a linear array with the coarsest machine (structure-blind, §9); " +
			"2-level composes over the coarsest partition only; the full hierarchy recurses through every declared level"},
	}
	for _, n := range lengths {
		flat, h2, hn, err := TreePoint(tn, coll, n)
		if err != nil {
			return t, fmt.Errorf("%v tree n=%d: %w", coll, n, err)
		}
		best := flat
		if h2 < best {
			best = h2
		}
		t.Rows = append(t.Rows, []string{
			bytesLabel(n), secs(flat), secs(h2), secs(hn),
			fmt.Sprintf("%.2f", best/hn),
		})
	}
	return t, nil
}
