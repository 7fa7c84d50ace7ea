package model

import (
	"fmt"
	"math"

	"repro/internal/group"
)

// N-level machines. A Hierarchy generalizes TwoLevel to arbitrary depth:
// Machines[0] prices the coarsest network (between top-level blocks, e.g.
// racks), Machines[1] the next level down (between nodes of a rack), and
// the last entry the fabric inside the deepest blocks. A depth-d topology
// therefore wants d+1 parameter sets; when fewer are given the last one is
// reused for every deeper level, so a TwoLevel's [Global, Local] pair
// remains valid for any depth.

// Hierarchy holds one machine parameter set per hierarchy level,
// coarsest first.
type Hierarchy struct {
	Machines []Machine
}

// Validate checks every parameter set.
func (h Hierarchy) Validate() error {
	if len(h.Machines) == 0 {
		return fmt.Errorf("model: hierarchy with no machine levels")
	}
	for i, m := range h.Machines {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("model: hierarchy level %d: %w", i, err)
		}
	}
	return nil
}

// At returns the machine pricing communication at level l (0 = between
// top-level blocks), reusing the deepest parameter set beyond the end.
func (h Hierarchy) At(l int) Machine {
	if l >= len(h.Machines) {
		l = len(h.Machines) - 1
	}
	if l < 0 {
		l = 0
	}
	return h.Machines[l]
}

// UniformHierarchy is the degenerate hierarchy whose every level is the
// same machine m: its recursive costs never undercut the flat menu (extra
// phases, no cheaper level), so auto-selection stays flat on it — the safe
// default when no per-level parameters are known.
func UniformHierarchy(m Machine) Hierarchy {
	return Hierarchy{Machines: []Machine{m}}
}

// RackLike returns a representative modern three-level machine: the
// ClusterLike intra-node fabric and inter-node network, topped by an
// inter-rack network ten times worse again in startup latency and
// per-byte cost — the regime where recursing the composition one level
// further pays off.
func RackLike() Hierarchy {
	tl := ClusterLike()
	rack := tl.Global
	rack.Alpha *= 10
	rack.Beta *= 10
	return Hierarchy{Machines: []Machine{rack, tl.Global, tl.Local}}
}

// Cost prices collective c with an n-byte vector under the recursive
// hierarchical composition over topology t: level-k phases are charged on
// the level-k machine parameters, intra-block phases on the level below,
// and concurrent blocks cost their slowest member. This mirrors the
// executor in internal/core/hier.go phase for phase — the menus must stay
// aligned for the planner's hierarchy-versus-flat decision to be
// trustworthy. Collectives the executor does not run hierarchically
// (scatter, gather) cost +Inf so selection never picks them.
func (h Hierarchy) Cost(c Collective, t group.Topology, n float64) float64 {
	if len(h.Machines) == 0 || t.P() == 0 {
		return math.Inf(1)
	}
	switch c {
	case Bcast:
		return h.bcastTree(&t, 0, n)
	case Reduce:
		return h.reduceTree(&t, 0, n)
	case AllReduce:
		return h.allReduceTree(&t, 0, n, false)
	case Collect:
		return h.collectTree(&t, 0, n)
	case ReduceScatter:
		return h.reduceScatterTree(&t, 0, n)
	case AllToAll:
		return h.allToAllTree(&t, 0, n)
	default:
		return math.Inf(1)
	}
}

// AllReduceUnstriped prices the all-reduce with the striped leader phase
// disabled (reduce-to-representative, leader all-reduce, broadcast) — the
// schedule the executor falls back to on unequal block sizes. Exposed so
// sweeps can show what striping buys.
func (h Hierarchy) AllReduceUnstriped(t group.Topology, n float64) float64 {
	return h.allReduceTree(&t, 0, n, true)
}

// blockFanout describes t's top partition: block count, the largest block
// size, and whether all blocks are the same size.
func blockFanout(t *group.Topology) (k, q int, equal bool) {
	sizes := t.Top().Sizes()
	equal = true
	for _, s := range sizes {
		if s > q {
			q = s
		}
	}
	for _, s := range sizes {
		if s != q {
			equal = false
		}
	}
	return len(sizes), q, equal
}

// sub returns block k's internal topology, or nil when t is depth-1 (its
// blocks are flat member sets).
func sub(t *group.Topology, k int) *group.Topology {
	if t.Depth() <= 1 {
		return nil
	}
	s := t.Sub(k)
	return &s
}

// maxOverBlocks evaluates f on every top block of t (its sub-topology, or
// nil with the block size for a flat block) and returns the slowest —
// blocks run their intra phases concurrently, so the largest finishes
// last.
func maxOverBlocks(t *group.Topology, f func(st *group.Topology, size int) float64) float64 {
	cl := t.Top()
	worst := 0.0
	for k := 0; k < cl.K(); k++ {
		if c := f(sub(t, k), len(cl.Members(k))); c > worst {
			worst = c
		}
	}
	return worst
}

// bcastTree: a leader-level broadcast among the K block representatives,
// then a recursive broadcast inside each block. t nil means a flat group
// of q members priced on level l.
func (h Hierarchy) bcastTree(t *group.Topology, l int, n float64) float64 {
	k, _, _ := blockFanout(t)
	c := h.At(l).bestBcast(k, n)
	return c + maxOverBlocks(t, func(st *group.Topology, size int) float64 {
		if st == nil {
			return h.At(l+1).bestBcast(size, n)
		}
		return h.bcastTree(st, l+1, n)
	})
}

func (h Hierarchy) reduceTree(t *group.Topology, l int, n float64) float64 {
	k, _, _ := blockFanout(t)
	c := h.At(l).bestReduce(k, n)
	return c + maxOverBlocks(t, func(st *group.Topology, size int) float64 {
		if st == nil {
			return h.At(l+1).bestReduce(size, n)
		}
		return h.reduceTree(st, l+1, n)
	})
}

// allReduceTree: with equal block sizes the leader phase is striped — each
// block reduce-scatters its vector over its members, the members at the
// same position across blocks all-reduce their stripes over the level-l
// network (the stripes share each block's uplink, so the level-l transfer
// still prices the full vector), and each block collects the stripes back.
// Unequal blocks (or unstriped=true) fall back to reduce-to-representative,
// leader all-reduce, broadcast.
func (h Hierarchy) allReduceTree(t *group.Topology, l int, n float64, unstriped bool) float64 {
	k, q, equal := blockFanout(t)
	if equal && q > 1 && k > 1 && !unstriped {
		c := h.At(l).bestAllReduce(k, n)
		c += maxOverBlocks(t, func(st *group.Topology, size int) float64 {
			if st == nil {
				return h.At(l+1).bestReduceScatter(size, n) + h.At(l+1).bestCollect(size, n)
			}
			return h.reduceScatterTree(st, l+1, n) + h.collectTree(st, l+1, n)
		})
		return c
	}
	c := h.At(l).bestAllReduce(k, n)
	c += maxOverBlocks(t, func(st *group.Topology, size int) float64 {
		if st == nil {
			return h.At(l+1).bestReduce(size, n) + h.At(l+1).bestBcast(size, n)
		}
		return h.reduceTree(st, l+1, n) + h.bcastTree(st, l+1, n)
	})
	return c
}

// gatherTree: the cost of assembling a block's bytes at its leader —
// recursive gathers inside sub-blocks, then an MST gather of the sub-block
// ranges among sub-leaders. st nil is a flat block of the given size.
func (h Hierarchy) gatherTree(st *group.Topology, size int, l int, bytes float64) float64 {
	if st == nil {
		return h.At(l).MSTGather(size, bytes, 1)
	}
	k, _, _ := blockFanout(st)
	p := float64(st.P())
	c := h.At(l).MSTGather(k, bytes, 1)
	return c + maxOverBlocks(st, func(sst *group.Topology, ssize int) float64 {
		return h.gatherTree(sst, ssize, l+1, bytes*float64(ssize)/p)
	})
}

func (h Hierarchy) scatterTree(st *group.Topology, size int, l int, bytes float64) float64 {
	if st == nil {
		return h.At(l).MSTScatter(size, bytes, 1)
	}
	k, _, _ := blockFanout(st)
	p := float64(st.P())
	c := h.At(l).MSTScatter(k, bytes, 1)
	return c + maxOverBlocks(st, func(sst *group.Topology, ssize int) float64 {
		return h.scatterTree(sst, ssize, l+1, bytes*float64(ssize)/p)
	})
}

// collectTree: gather each block's range to its leader, collect the block
// ranges among leaders on the level-l network, broadcast the whole vector
// back down inside each block.
func (h Hierarchy) collectTree(t *group.Topology, l int, n float64) float64 {
	k, _, _ := blockFanout(t)
	p := float64(t.P())
	c := maxOverBlocks(t, func(st *group.Topology, size int) float64 {
		return h.gatherTree(st, size, l+1, n*float64(size)/p)
	})
	c += h.At(l).bestCollect(k, n)
	c += maxOverBlocks(t, func(st *group.Topology, size int) float64 {
		if st == nil {
			return h.At(l+1).bestBcast(size, n)
		}
		return h.bcastTree(st, l+1, n)
	})
	return c
}

// reduceScatterTree mirrors collectTree: reduce the full vector inside
// each block, distributed-combine the block ranges among leaders, scatter
// member segments back down.
func (h Hierarchy) reduceScatterTree(t *group.Topology, l int, n float64) float64 {
	k, _, _ := blockFanout(t)
	p := float64(t.P())
	c := maxOverBlocks(t, func(st *group.Topology, size int) float64 {
		if st == nil {
			return h.At(l+1).bestReduce(size, n)
		}
		return h.reduceTree(st, l+1, n)
	})
	c += h.At(l).bestReduceScatter(k, n)
	c += maxOverBlocks(t, func(st *group.Topology, size int) float64 {
		return h.scatterTree(st, size, l+1, n*float64(size)/p)
	})
	return c
}

// a2aEdge: the cost of funnelling every member's n-byte personalized
// vector to the block leader (and, by symmetry, redistributing results):
// linear sends at each level, sub-block aggregates forwarded whole.
func (h Hierarchy) a2aEdge(st *group.Topology, size int, l int, n float64) float64 {
	m := h.At(l)
	if st == nil {
		return float64(size-1)*(m.Alpha+m.StepOverhead) + float64(size-1)*n*m.Beta
	}
	cl := st.Top()
	k := cl.K()
	first := len(cl.Members(0))
	c := float64(k-1)*(m.Alpha+m.StepOverhead) + float64(st.P()-first)*n*m.Beta
	return c + maxOverBlocks(st, func(sst *group.Topology, ssize int) float64 {
		return h.a2aEdge(sst, ssize, l+1, n)
	})
}

// allToAllTree: members funnel personalized vectors to block leaders,
// leaders exchange aggregated block-pair vectors over the level-l network
// (pairwise when block sizes are uneven — the Bruck relay needs equal
// blocks), and leaders redistribute the assembled results.
func (h Hierarchy) allToAllTree(t *group.Topology, l int, n float64) float64 {
	k, q, equal := blockFanout(t)
	edge := maxOverBlocks(t, func(st *group.Topology, size int) float64 {
		return h.a2aEdge(st, size, l+1, n)
	})
	qn := float64(q) * n
	global := h.At(l).LongAllToAll(k, qn, 1)
	if equal {
		global = h.At(l).bestAllToAll(k, qn)
	}
	return 2*edge + global
}
