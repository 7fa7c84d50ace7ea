package group

import "fmt"

// MaxDepth bounds how many nested levels a Topology may have. The bound
// comes from the transport tag namespace: each recursion level consumes a
// fixed window of the 8-bit phase field, and six levels is the deepest
// hierarchy that fits with room for every stage of every collective.
const MaxDepth = 6

// Topology is an ordered list of nested partitions of a group — e.g.
// rack → node → socket. Level 0 is the coarsest (racks); each deeper
// level refines the one above it, so every level-l+1 block lies entirely
// inside one level-l block. A Cluster is one level's partition: a
// two-level (cluster) machine is exactly the depth-1 topology, and Top()
// exposes any topology's coarsest level as a Cluster.
//
// Like Cluster, a Topology is defined over a group's logical indices
// 0..P-1; the member list provides the logical-to-physical mapping
// underneath it.
type Topology struct {
	levels [][]int    // levels[l][i] = normalized block id of index i at level l
	cl     Cluster    // the level-0 partition
	subs   []Topology // per level-0 block: the deeper levels over block-local indices
}

// NewTopology builds a topology from one assignment slice per level,
// coarsest first. Every slice must cover the same P indices, block ids
// are normalized per level in order of first appearance (as NewCluster
// does), and each level must nest inside the previous one: two indices
// sharing a level-l+1 block must share their level-l block.
func NewTopology(levels ...[]int) (Topology, error) {
	if len(levels) == 0 {
		return Topology{}, fmt.Errorf("group: topology needs at least one level")
	}
	if len(levels) > MaxDepth {
		return Topology{}, fmt.Errorf("group: topology depth %d exceeds max %d", len(levels), MaxDepth)
	}
	p := len(levels[0])
	if p == 0 {
		return Topology{}, fmt.Errorf("group: empty topology assignment")
	}
	for l, lv := range levels {
		if len(lv) != p {
			return Topology{}, fmt.Errorf("group: topology level %d covers %d indices, level 0 has %d", l, len(lv), p)
		}
	}
	// Nesting: same block at level l+1 implies same block at level l.
	for l := 0; l+1 < len(levels); l++ {
		coarse := make(map[int]int) // fine block id -> coarse block id
		for i := range levels[l+1] {
			f, c := levels[l+1][i], levels[l][i]
			if prev, ok := coarse[f]; ok {
				if prev != c {
					return Topology{}, fmt.Errorf("group: topology level %d block %d spans level %d blocks %d and %d",
						l+1, f, l, prev, c)
				}
			} else {
				coarse[f] = c
			}
		}
	}
	return newTopologyNested(levels)
}

// newTopologyNested assumes validated, nested levels and builds the
// normalized recursive structure.
func newTopologyNested(levels [][]int) (Topology, error) {
	cl, err := NewCluster(levels[0])
	if err != nil {
		return Topology{}, err
	}
	t := Topology{cl: cl}
	t.levels = make([][]int, len(levels))
	t.levels[0] = cl.Assignment()
	if len(levels) == 1 {
		return t, nil
	}
	t.subs = make([]Topology, cl.K())
	for k := 0; k < cl.K(); k++ {
		mem := cl.Members(k)
		subLevels := make([][]int, len(levels)-1)
		for l := 1; l < len(levels); l++ {
			lv := make([]int, len(mem))
			for j, idx := range mem {
				lv[j] = levels[l][idx]
			}
			subLevels[l-1] = lv
		}
		sub, err := newTopologyNested(subLevels)
		if err != nil {
			return Topology{}, err
		}
		t.subs[k] = sub
	}
	// Reassemble the deeper normalized levels from the sub-topologies so
	// Assignments returns the same ids every member would compute. Block
	// ids only need to be unique within their parent block; offsetting by
	// a running base keeps them globally unique too, which makes the
	// flattened slices valid NewTopology input again.
	for l := 1; l < len(levels); l++ {
		norm := make([]int, len(levels[0]))
		base := 0
		for k := 0; k < cl.K(); k++ {
			sub := t.subs[k]
			mem := cl.Members(k)
			maxID := 0
			for j, idx := range mem {
				id := sub.levels[l-1][j]
				norm[idx] = base + id
				if id > maxID {
					maxID = id
				}
			}
			base += maxID + 1
		}
		t.levels[l] = norm
	}
	return t, nil
}

// TopologyBySizes partitions p indices into nested consecutive blocks:
// sizes are coarsest first (e.g. 64, 8 makes racks of 64 containing
// nodes of 8). Each finer size must divide the coarser one so the
// blocks nest; the last block at each level may be smaller.
func TopologyBySizes(p int, sizes ...int) (Topology, error) {
	if len(sizes) == 0 {
		return Topology{}, fmt.Errorf("group: topology needs at least one block size")
	}
	levels := make([][]int, len(sizes))
	for l, size := range sizes {
		if size < 1 {
			return Topology{}, fmt.Errorf("group: topology block size %d", size)
		}
		if l > 0 && sizes[l-1]%size != 0 {
			return Topology{}, fmt.Errorf("group: topology block size %d does not divide coarser size %d", size, sizes[l-1])
		}
		lv := make([]int, p)
		for i := range lv {
			lv[i] = i / size
		}
		levels[l] = lv
	}
	return NewTopology(levels...)
}

// Depth returns the number of levels.
func (t Topology) Depth() int { return len(t.levels) }

// P returns the number of logical indices the topology covers.
func (t Topology) P() int { return t.cl.P() }

// Top returns the coarsest partition as a Cluster.
func (t Topology) Top() Cluster { return t.cl }

// Sub returns the topology of the deeper levels inside top-level block k,
// over block-local indices 0..len(members)-1. Only valid when Depth > 1.
func (t Topology) Sub(k int) Topology { return t.subs[k] }

// Assignments returns a copy of the normalized per-level assignments,
// coarsest first — valid input for NewTopology.
func (t Topology) Assignments() [][]int {
	out := make([][]int, len(t.levels))
	for l, lv := range t.levels {
		out[l] = append([]int(nil), lv...)
	}
	return out
}

// Sizes returns the member counts of the top-level blocks.
func (t Topology) Sizes() []int { return t.cl.Sizes() }

// LevelSizes returns, per level, the size of the largest block at that
// level — the per-level fan-out the cost model prices.
func (t Topology) LevelSizes() []int {
	out := make([]int, len(t.levels))
	out[0] = t.cl.MaxSize()
	for _, sub := range t.subs {
		for l, s := range sub.LevelSizes() {
			if s > out[l+1] {
				out[l+1] = s
			}
		}
	}
	if len(t.subs) == 0 {
		for l := 1; l < len(t.levels); l++ {
			out[l] = 1
		}
	}
	return out
}

// Contiguous reports whether every block at every level is a run of
// consecutive indices (in its own index space). Recursively contiguous
// topologies let the partitioned collectives operate in place; others go
// through a pack/unpack detour.
func (t Topology) Contiguous() bool {
	if !t.cl.Contiguous() {
		return false
	}
	for _, sub := range t.subs {
		if !sub.Contiguous() {
			return false
		}
	}
	return true
}

// RecOrder returns the depth-first member order: top-level blocks in id
// order, members within each block in the sub-topology's recursive
// order. For a recursively contiguous topology this is the identity;
// otherwise it is the permutation the executors canonicalize through.
func (t Topology) RecOrder() []int {
	ord := make([]int, 0, t.P())
	for k := 0; k < t.cl.K(); k++ {
		mem := t.cl.Members(k)
		if len(t.subs) == 0 {
			ord = append(ord, mem...)
			continue
		}
		for _, j := range t.subs[k].RecOrder() {
			ord = append(ord, mem[j])
		}
	}
	return ord
}

// Validate checks the topology against a group of p logical nodes.
func (t Topology) Validate(p int) error {
	if len(t.levels) == 0 {
		return fmt.Errorf("group: empty topology")
	}
	return t.cl.Validate(p)
}
