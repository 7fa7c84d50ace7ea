package icc

import (
	"fmt"

	"repro/internal/group"
	"repro/internal/model"
)

// Group collective communication (§9). A sub-communicator is defined by an
// ordered list of parent ranks; its collectives involve only those nodes
// and renumber them 0..len-1. The library extracts what it can about the
// group's physical structure: groups forming physical rows, columns,
// contiguous ranges or rectangular sub-meshes keep the mesh-aware
// algorithm menu, while unstructured groups are planned as linear arrays,
// exactly the policy described in the paper.

// Sub returns the sub-communicator of the listed parent ranks (in the
// given order). Only members may use the returned communicator; a
// non-member receives nil. Every member must call Sub with the same list.
func (c *Comm) Sub(ranks []int) (*Comm, error) {
	if err := group.Validate(ranks, c.Size()); err != nil {
		return nil, err
	}
	members := make([]int, len(ranks))
	for i, r := range ranks {
		members[i] = c.members[r]
	}
	me := group.Index(members, c.ep.Rank())
	if me < 0 {
		return nil, nil
	}
	// Detect physical structure in world-rank space. The world layout is
	// only meaningful for whole-world communicators; otherwise fall back
	// to a linear view.
	phys := c.layout
	if len(c.members) != c.ep.Size() {
		phys = group.Linear(c.ep.Size())
	}
	sub, _ := group.DetectStructure(members, phys)
	return c.derive(members, me, sub), nil
}

// derive returns a communicator over the given group that inherits c's
// endpoint, machine parameters, planner, policy and context-id allocator
// — everything but the group itself and the topology attached to it. It
// is the one place a communicator is built from another, so a new
// inherited field is added here once.
func (c *Comm) derive(members []int, me int, layout group.Layout) *Comm {
	s := &Comm{
		ep:        c.ep,
		members:   members,
		me:        me,
		layout:    layout,
		mach:      c.mach,
		hasMach:   c.hasMach,
		machProv:  c.machProv,
		planner:   c.planner,
		alg:       c.alg,
		seq:       c.seq,
		hier:      c.hier,
		hasHier:   c.hasHier,
		unstriped: c.unstriped,
		epoch:     c.epoch,
	}
	s.ctxID = c.seq.Add(1) & 0x7f
	return s
}

// WithClusters returns a communicator identical to c but carrying a
// two-level cluster partition — a depth-1 topology: of[r] names the
// cluster (node) of rank r, for every rank of the communicator. Cluster
// ids are arbitrary labels; they are normalized internally. With a
// partition attached, the automatic policy weighs hierarchical collectives
// — intra-cluster phases composed with a leader-level phase — against flat
// hybrids using the per-level machine parameters (WithTwoLevel,
// WithMachines, or the endpoint's own), and AlgHier forces them. Every
// member must call WithClusters with the same map.
func (c *Comm) WithClusters(of map[int]int) (*Comm, error) {
	assign := make([]int, c.Size())
	for r := range assign {
		v, ok := of[r]
		if !ok {
			return nil, fmt.Errorf("icc: cluster map misses rank %d", r)
		}
		assign[r] = v
	}
	if len(of) != c.Size() {
		return nil, fmt.Errorf("icc: cluster map names %d ranks, communicator has %d", len(of), c.Size())
	}
	return c.WithTopology(assign)
}

// WithClustersBySize returns a communicator whose ranks are partitioned
// into consecutive clusters of the given size (the last may be smaller) —
// the conventional node-major rank layout.
func (c *Comm) WithClustersBySize(size int) (*Comm, error) {
	return c.WithTopologyBySizes(size)
}

// WithTopology returns a communicator identical to c but carrying an
// N-level nested partition of its ranks, coarsest level first: levels[0]
// names each rank's top-level block (rack), levels[1] its block at the
// next level down (node), and so on — each deeper level must nest inside
// the one above. With per-level machine parameters attached (WithMachines,
// or the endpoint's own) the automatic policy weighs the recursive
// hierarchical composition against flat hybrids, and AlgHier forces it. A
// single level is exactly WithClusters. Every member must call
// WithTopology with the same levels.
func (c *Comm) WithTopology(levels ...[]int) (*Comm, error) {
	t, err := group.NewTopology(levels...)
	if err != nil {
		return nil, err
	}
	return c.withTopology(t)
}

// WithTopologyBySizes returns a communicator whose ranks form nested
// consecutive blocks of the given sizes, coarsest first — e.g. (64, 8)
// partitions the ranks into racks of 64 containing nodes of 8. Each finer
// size must divide the coarser one.
func (c *Comm) WithTopologyBySizes(sizes ...int) (*Comm, error) {
	t, err := group.TopologyBySizes(c.Size(), sizes...)
	if err != nil {
		return nil, err
	}
	return c.withTopology(t)
}

func (c *Comm) withTopology(t group.Topology) (*Comm, error) {
	if err := t.Validate(c.Size()); err != nil {
		return nil, err
	}
	s := c.derive(append([]int(nil), c.members...), c.me, c.layout)
	s.attach(t)
	return s, nil
}

// attach hangs topology t on c, with the planner that prices the flat
// baseline at the coarsest level's parameters.
func (c *Comm) attach(t group.Topology) {
	c.topo, c.hasTopo = t, true
	c.gplanner = model.NewPlanner(c.hierarchy().At(0))
	c.gplanner.SetProvenance(c.machProv + " (coarsest level)")
}

// Topology returns copies of the communicator's normalized per-level
// partition assignments, coarsest first, or nil when none is attached.
// A communicator built with WithClusters reports its partition as a
// single level.
func (c *Comm) Topology() [][]int {
	if !c.hasTopo {
		return nil
	}
	return c.topo.Assignments()
}

// Clusters returns the communicator's normalized rank→cluster assignment
// — its topology's coarsest level — or nil when no partition is attached.
func (c *Comm) Clusters() []int {
	if !c.hasTopo {
		return nil
	}
	return c.topo.Top().Assignment()
}

// SubRow returns the communicator of this node's row of a 2-D
// communicator layout — the groups the paper's own hybrids are built from.
func (c *Comm) SubRow() (*Comm, error) {
	cols, _, err := c.meshExtents()
	if err != nil {
		return nil, err
	}
	row := c.me / cols
	return c.Sub(group.Arithmetic(row*cols, 1, cols))
}

// SubColumn returns the communicator of this node's column of a 2-D
// communicator layout.
func (c *Comm) SubColumn() (*Comm, error) {
	cols, rows, err := c.meshExtents()
	if err != nil {
		return nil, err
	}
	col := c.me % cols
	return c.Sub(group.Arithmetic(col, cols, rows))
}

func (c *Comm) meshExtents() (cols, rows int, err error) {
	if len(c.layout.Extents) != 2 {
		return 0, 0, fmt.Errorf("icc: communicator is not a 2-D mesh (%v)", c.layout)
	}
	return c.layout.Extents[0], c.layout.Extents[1], nil
}
