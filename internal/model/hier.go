package model

import "math"

// Two-level machines. Modern clusters expose two very different networks:
// ranks sharing a node talk through memory (low α, high bandwidth), ranks
// on different nodes through a NIC (higher α, lower bandwidth). A TwoLevel
// value names the two parameter sets; it is priced and executed as the
// two-entry Hierarchy [Global, Local] (see Hierarchy.Cost).

// TwoLevel holds machine parameters for a two-level hierarchy.
type TwoLevel struct {
	// Local describes communication between ranks of the same cluster.
	Local Machine
	// Global describes communication between ranks of different clusters
	// (the leader-level network).
	Global Machine
}

// Hierarchy views the two-level machine as a depth-agnostic hierarchy:
// the global parameters between top-level blocks, the local parameters
// everywhere below.
func (t TwoLevel) Hierarchy() Hierarchy {
	return Hierarchy{Machines: []Machine{t.Global, t.Local}}
}

// ClusterLike returns a representative modern two-level machine: a fast
// intra-node fabric (memory/NVLink class) and an inter-node network ten
// times worse in both startup latency and per-byte cost (NIC class) —
// the regime where composing collectives hierarchically pays off.
func ClusterLike() TwoLevel {
	local := Machine{
		Alpha:        5e-6,
		Beta:         1.0 / 5e9,
		Gamma:        1e-9,
		LinkExcess:   2,
		StepOverhead: 1e-6,
	}
	global := local
	global.Alpha *= 10
	global.Beta *= 10
	return TwoLevel{Local: local, Global: global}
}

// HierShape returns the shape selecting the hierarchical strategy. The
// topology travels with the invocation context.
func HierShape() Shape { return Shape{Hier: true} }

// Best-of-fixed-endpoint helpers: the hierarchical executor chooses per
// phase between the short (MST) and long (bucket) linear-array algorithms,
// so the cost of a phase is the cheaper of the two endpoints. These mirror
// core.phaseShape; keeping the menus aligned is what makes the planner's
// predictions trustworthy.

func (m Machine) bestBcast(p int, n float64) float64 {
	return math.Min(m.MSTBcast(p, n, 1), m.LongBcast(p, n, 1))
}

func (m Machine) bestReduce(p int, n float64) float64 {
	return math.Min(m.MSTReduce(p, n, 1), m.LongReduce(p, n, 1))
}

func (m Machine) bestAllReduce(p int, n float64) float64 {
	return math.Min(m.ShortAllReduce(p, n, 1), m.LongAllReduce(p, n, 1))
}

func (m Machine) bestCollect(p int, n float64) float64 {
	return math.Min(m.ShortCollect(p, n, 1), m.BucketCollect(p, n, 1))
}

func (m Machine) bestReduceScatter(p int, n float64) float64 {
	return math.Min(m.ShortReduceScatter(p, n, 1), m.BucketReduceScatter(p, n, 1))
}

func (m Machine) bestAllToAll(p int, n float64) float64 {
	return math.Min(m.ShortAllToAll(p, n, 1), m.LongAllToAll(p, n, 1))
}
