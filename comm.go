package icc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/transport"
)

// Re-exported element types and combine operations, so applications only
// import this package.
type (
	// Type identifies a vector element type (datatype.Type).
	Type = datatype.Type
	// Op identifies an associative, commutative combine operation.
	Op = datatype.Op
	// Machine holds α/β/γ machine parameters (model.Machine).
	Machine = model.Machine
	// Shape is an explicit hybrid algorithm description (model.Shape).
	Shape = model.Shape
	// TwoLevel holds machine parameters for a two-level hierarchy
	// (model.TwoLevel): Local for ranks in the same cluster, Global for
	// the leader-level network between clusters.
	TwoLevel = model.TwoLevel
)

// Element types.
const (
	Uint8   = datatype.Uint8
	Int32   = datatype.Int32
	Int64   = datatype.Int64
	Float32 = datatype.Float32
	Float64 = datatype.Float64
)

// Combine operations.
const (
	Sum  = datatype.Sum
	Prod = datatype.Prod
	Max  = datatype.Max
	Min  = datatype.Min
)

// Comm is a communicator: an ordered group of nodes that collective
// operations span, with rank = position in the group (§9's group array).
// A Comm is not safe for concurrent use; a node runs one collective at a
// time, and every member must call the same collectives in the same order
// (SPMD).
type Comm struct {
	ep      transport.Endpoint
	members []int
	me      int
	layout  group.Layout
	mach    model.Machine
	hasMach bool
	// machProv names where mach came from — "default ParagonLike",
	// "transport-declared", "WithMachine", "calibrated (tcp), fitted …" —
	// stamped onto the planner so Explain can report it.
	machProv string
	// optErr defers an option's construction failure (e.g. WithProfile on
	// an unreadable path) to New, since Option funcs cannot return errors.
	optErr  error
	planner *model.Planner
	alg     Alg
	// ctxID is this communicator's tag namespace, assigned at creation
	// from a per-rank counter (like an MPI context id). Collectives on
	// different communicators thus use distinct tags even when
	// interleaved; successive collectives on one communicator rely on
	// per-pair FIFO ordering, which SPMD call discipline guarantees.
	ctxID uint32
	seq   *atomic.Uint32 // per-rank context id allocator, shared with subgroups
	// Hierarchy state. topo is the nested partition of the group's logical
	// indices (WithTopology; WithClusters attaches a depth-1 one); hier
	// holds per-level machine parameters, coarsest first (WithMachines,
	// WithTwoLevel, a profile, or the endpoint's own); gplanner costs flat
	// hybrids with the coarsest level's parameters, the honest flat
	// baseline on a hierarchical machine; unstriped disables the striped
	// all-reduce leader phase for comparison sweeps.
	topo      group.Topology
	hasTopo   bool
	hier      model.Hierarchy
	hasHier   bool
	gplanner  *model.Planner
	unstriped bool
	// Plan state (plan.go). All lazily initialized under planMu, so
	// communicators built by derive start with valid zero values. plans
	// caches the step plan of every signature any completion mode has
	// called; shapeMemo lets plans that differ only in root, type or op
	// share one shape resolution; hits/misses feed PlanCacheStats.
	planMu    sync.Mutex
	shapeMemo map[shapeKey]Shape
	plans     map[planKey]planEntry
	planHits  atomic.Int64
	planMiss  atomic.Int64
	// bufPool recycles the staging vectors and scratch arenas plans run in.
	bufPool sync.Pool
	// prog is the communicator's progress engine: a lazily started
	// goroutine draining issued requests in FIFO order.
	prog progress
	// recvTimeout is consumed by the world constructors (world.go), which
	// apply their options to a probe Comm before building the transport;
	// it has no effect on a communicator over an already-built endpoint.
	recvTimeout time.Duration
	// epoch is the transport epoch this communicator was built in. After a
	// Shrink the endpoint moves to the next epoch and every communicator of
	// the old epoch refuses to run (guard), since its group may contain
	// agreed-dead ranks and its cached plans dead routes.
	epoch int
}

// shapeKey memoizes shape resolution per (collective, vector length); the
// group and machine are fixed for the life of a communicator, so they need
// not participate.
type shapeKey struct {
	coll model.Collective
	n    int
}

// Option configures a communicator.
type Option func(*Comm)

// WithMachine attaches machine parameters used for automatic algorithm
// selection (and, on virtual-time transports, γ and per-stage accounting).
// Simulated endpoints supply their machine automatically.
func WithMachine(m Machine) Option {
	return func(c *Comm) { c.mach, c.hasMach, c.machProv = m, true, "WithMachine" }
}

// WithMesh declares that the endpoint's world is an rows×cols physical
// mesh with row-major ranks, enabling the §7.1 mesh refinements (bucket
// primitives within physical rows and columns).
func WithMesh(rows, cols int) Option {
	return func(c *Comm) { c.layout = group.Mesh2D(rows, cols) }
}

// WithAlg sets the default algorithm policy (AlgAuto if unset).
func WithAlg(a Alg) Option {
	return func(c *Comm) { c.alg = a }
}

// WithRecvTimeout bounds every point-to-point receive of a world built by
// NewChannelWorld or NewTCPWorld: a receive that waits longer fails with
// an error wrapping ErrTimeout, which the collective layer converts into
// a world abort — the backstop failure detector behind the prompt abort
// broadcast. The default is DefaultRecvTimeout; d ≤ 0 keeps it. The
// option configures world construction and has no effect on a
// communicator built with New over an existing endpoint.
func WithRecvTimeout(d time.Duration) Option {
	return func(c *Comm) { c.recvTimeout = d }
}

// WithTwoLevel attaches two-level machine parameters: local for ranks in
// the same cluster, global for the inter-cluster network. Together with a
// cluster partition (WithClusters) they let the automatic policy weigh
// hierarchical collectives against flat hybrids. It is WithMachines(global,
// local); simulated hierarchical endpoints supply these automatically.
func WithTwoLevel(local, global Machine) Option {
	return WithMachines(global, local)
}

// WithMachines attaches one machine parameter set per hierarchy level,
// coarsest first: machines[0] prices the network between top-level blocks
// (e.g. racks), the last entry the fabric inside the deepest blocks. A
// topology deeper than the list reuses the last entry for the remaining
// levels, so two entries generalize WithTwoLevel to any depth. Simulated
// hierarchical endpoints supply these automatically.
func WithMachines(machines ...Machine) Option {
	return func(c *Comm) {
		c.hier = model.Hierarchy{Machines: append([]Machine(nil), machines...)}
		c.hasHier = true
	}
}

// WithUnstripedHier disables the striped leader phase of the hierarchical
// all-reduce, forcing the reduce-to-leader / leader all-reduce / broadcast
// fallback. A measurement knob: sweeps use it to show what striping the
// leader phase across cluster members buys.
func WithUnstripedHier() Option {
	return func(c *Comm) { c.unstriped = true }
}

// New builds a whole-world communicator over an endpoint.
func New(ep transport.Endpoint, opts ...Option) (*Comm, error) {
	c := &Comm{
		ep:      ep,
		members: group.Identity(ep.Size()),
		me:      ep.Rank(),
		layout:  group.Linear(ep.Size()),
		alg:     AlgAuto,
		seq:     &atomic.Uint32{},
		epoch:   transport.EpochOf(ep),
	}
	c.ctxID = c.seq.Add(1) & 0x7f
	if mp, ok := ep.(interface{ Machine() model.Machine }); ok {
		c.mach, c.hasMach, c.machProv = mp.Machine(), true, "transport-declared"
	}
	if hp, ok := ep.(interface{ Hierarchy() model.Hierarchy }); ok {
		c.hier, c.hasHier = hp.Hierarchy(), true
	}
	for _, o := range opts {
		o(c)
	}
	if c.optErr != nil {
		return nil, c.optErr
	}
	if c.layout.P() != ep.Size() {
		return nil, fmt.Errorf("icc: layout %v does not span world of %d", c.layout, ep.Size())
	}
	if !c.hasMach {
		c.mach = model.ParagonLike()
		c.machProv = "default ParagonLike"
	}
	if c.hasHier {
		if err := c.hier.Validate(); err != nil {
			return nil, err
		}
	}
	c.planner = model.NewPlanner(c.mach)
	c.planner.SetProvenance(c.machProv)
	return c, nil
}

// Rank returns this node's position in the communicator's group.
func (c *Comm) Rank() int { return c.me }

// Size returns the number of nodes in the communicator.
func (c *Comm) Size() int { return len(c.members) }

// Members returns a copy of the group's member list (transport ranks).
func (c *Comm) Members() []int { return append([]int(nil), c.members...) }

// Layout returns the detected or declared physical structure of the group.
func (c *Comm) Layout() group.Layout { return c.layout }

// MachineModel returns the machine parameters used for planning.
func (c *Comm) MachineModel() Machine { return c.mach }

// MachineProvenance reports where the planning constants came from:
// "default ParagonLike", "transport-declared", "WithMachine", or a
// calibration record like "calibrated (tcp), fitted 2026-08-08" /
// "profile cal.json: calibrated (chan), fitted 2026-08-08".
func (c *Comm) MachineProvenance() string { return c.planner.Provenance() }

// PlannerCalls returns how many shape resolutions this communicator's
// planner has performed — the cost the shape memo and plan cache amortize.
// Repeated collectives with the same signature should not increase it.
func (c *Comm) PlannerCalls() int64 { return c.planner.BestCalls() }

// ctx builds the core invocation context in this communicator's tag
// namespace (context ids 0x80 and up are reserved for other libraries,
// e.g. the NX baseline).
func (c *Comm) ctx() core.Ctx {
	x := core.Ctx{
		EP:      c.ep,
		Members: c.members,
		Me:      c.me,
		Coll:    c.ctxID,
		Machine: &c.mach,
	}
	if c.hasTopo {
		x.Topology = &c.topo
		if c.hasHier {
			// Without per-level parameters the executor prices every
			// level with Machine, which is hierarchy()'s fallback too.
			x.Hierarchy = &c.hier
		}
	}
	x.Unstriped = c.unstriped
	return x
}

// hierarchy returns the per-level machine parameters, defaulting every
// level to the flat machine when none were supplied (on which the
// hierarchy never wins, so auto-selection stays flat).
func (c *Comm) hierarchy() model.Hierarchy {
	if c.hasHier {
		return c.hier
	}
	return model.UniformHierarchy(c.mach)
}

// shape resolves the algorithm policy into a concrete hybrid shape for an
// n-byte vector, memoized per (collective, length): plans for the same
// collective and length that differ in root, type or op resolve their shape
// once.
func (c *Comm) shape(coll model.Collective, nBytes int) Shape {
	key := shapeKey{coll, nBytes}
	c.planMu.Lock()
	if s, ok := c.shapeMemo[key]; ok {
		c.planMu.Unlock()
		return s
	}
	c.planMu.Unlock()
	s := c.resolveShape(coll, nBytes)
	c.planMu.Lock()
	if c.shapeMemo == nil {
		c.shapeMemo = make(map[shapeKey]Shape)
	}
	c.shapeMemo[key] = s
	c.planMu.Unlock()
	return s
}

func (c *Comm) resolveShape(coll model.Collective, nBytes int) Shape {
	switch c.alg.kind {
	case algShort:
		return model.MSTShape(c.layout)
	case algLong:
		return model.BucketShape(c.layout)
	case algShape:
		return c.alg.shape
	case algHier:
		if c.hasTopo {
			return model.HierShape()
		}
		s, _ := c.planner.Best(coll, c.layout, nBytes)
		return s
	default:
		if c.hasTopo {
			// On a hierarchical machine a flat collective pays the coarsest
			// network on most hops, so both the flat shape and the flat
			// baseline cost come from the coarse-parameter planner; run
			// the hierarchy when the recursive composition undercuts it.
			sg, flat := c.gplanner.Best(coll, c.layout, nBytes)
			if c.hierarchy().Cost(coll, c.topo, float64(nBytes)) < flat {
				return model.HierShape()
			}
			return sg
		}
		s, _ := c.planner.Best(coll, c.layout, nBytes)
		return s
	}
}

// carries reports whether payload bytes move on this transport.
func (c *Comm) carries() bool { return transport.CarriesData(c.ep) }

// guard rejects collectives on a communicator whose epoch predates the
// endpoint's: the world was aborted and recovered past it, so its group
// may contain agreed-dead ranks and its cached plans dead routes. The
// successor communicator returned by Shrink (or Readmit) carries the new
// epoch.
func (c *Comm) guard() error {
	if ep := transport.EpochOf(c.ep); ep != c.epoch {
		return fmt.Errorf("icc: communicator of epoch %d used in epoch %d (world recovered; use the communicator returned by Shrink): %w",
			c.epoch, ep, transport.ErrStaleEpoch)
	}
	return nil
}

// The blocking collectives. Each describes its call as a bound plan
// (plan.go) and runs it on the caller's goroutine.

// Bcast broadcasts count elements of type dt from root to every node, in
// place in buf (Table 1: x at all Pj).
func (c *Comm) Bcast(buf []byte, count int, dt Type, root int) error {
	return runNow(c.bcast(buf, count, dt, root))
}

// Reduce combines each node's count-element send vector with op and leaves
// the result in recv on the root (Table 1: ⊕y(j) at Pk). recv is only
// written on the root and must not overlap send.
func (c *Comm) Reduce(send, recv []byte, count int, dt Type, op Op, root int) error {
	return runNow(c.reduce(send, recv, count, dt, op, root))
}

// AllReduce combines each node's send vector and leaves the result in recv
// on every node (Table 1: ⊕y(j) at all Pj).
func (c *Comm) AllReduce(send, recv []byte, count int, dt Type, op Op) error {
	return runNow(c.allReduce(send, recv, count, dt, op))
}

// Scatter splits root's send vector into equal count-element segments and
// delivers segment i to node i's recv (Table 1: xj at Pj). send is read
// only on the root.
func (c *Comm) Scatter(send, recv []byte, count int, dt Type, root int) error {
	return runNow(c.scatter(send, count, nil, false, recv, dt, root))
}

// Scatterv is Scatter with per-node element counts; node i receives
// counts[i] elements.
func (c *Comm) Scatterv(send []byte, counts []int, recv []byte, dt Type, root int) error {
	return runNow(c.scatter(send, 0, counts, true, recv, dt, root))
}

// Gather assembles each node's count-element send segment into recv on the
// root (Table 1: x at Pk). recv is only written on the root.
func (c *Comm) Gather(send, recv []byte, count int, dt Type, root int) error {
	return runNow(c.gather(send, count, nil, false, recv, dt, root))
}

// Gatherv is Gather with per-node element counts.
func (c *Comm) Gatherv(send []byte, counts []int, recv []byte, dt Type, root int) error {
	return runNow(c.gather(send, 0, counts, true, recv, dt, root))
}

// Collect assembles each node's count-element send segment on every node
// (Table 1: x at all Pj) — the all-gather.
func (c *Comm) Collect(send, recv []byte, count int, dt Type) error {
	return runNow(c.collect(send, count, nil, false, recv, dt))
}

// Collectv is Collect with per-node element counts — the "known lengths"
// collect of Table 3. recv spans the whole vector on every node and is
// used as the working buffer.
func (c *Comm) Collectv(send []byte, counts []int, recv []byte, dt Type) error {
	return runNow(c.collect(send, 0, counts, true, recv, dt))
}

// ReduceScatter combines every node's full send vector with op and leaves
// segment i (counts[i] elements) in node i's recv — Table 1's distributed
// combine.
func (c *Comm) ReduceScatter(send []byte, counts []int, recv []byte, dt Type, op Op) error {
	return runNow(c.reduceScatter(send, counts, recv, dt, op))
}

// AllToAll performs the complete exchange with equal per-pair counts:
// send holds Size() blocks of count elements, block j destined to rank j;
// on return recv holds Size() blocks, block j originating at rank j (the
// distributed transpose). The automatic policy picks between the Bruck
// relay (short vectors, ⌈log₂p⌉ steps) and the rotation/pairwise schedule
// (long vectors, bandwidth-optimal) analytically, and composes the
// exchange hierarchically on clustered communicators when the two-level
// model predicts a win. The plan only reads send and fully writes recv, so
// the user's buffers serve directly, with no staging copies; send and recv
// must not overlap.
func (c *Comm) AllToAll(send, recv []byte, count int, dt Type) error {
	return runNow(c.allToAll(send, recv, count, dt))
}

// AllToAllv is AllToAll with per-pair element counts: this rank sends
// sendCounts[j] elements to rank j and receives recvCounts[j] elements
// from rank j, so rank i's sendCounts[j] must equal rank j's
// recvCounts[i]. By default blocks travel directly (the pairwise
// schedule): relaying schedules would require the full count matrix,
// which — as in MPI_Alltoallv — no single rank holds. Under AlgHier on a
// clustered communicator the library assembles that matrix first (an
// all-gather of the count rows) and runs the ragged cluster exchange,
// aggregating every cluster-pair's blocks into one coarse-network message.
// The policy gate is the algorithm choice, not the byte count, so every
// rank takes the same path even though their vector lengths differ.
func (c *Comm) AllToAllv(send []byte, sendCounts []int, recv []byte, recvCounts []int, dt Type) error {
	if c.alg.kind == algHier && c.hasTopo && c.carries() {
		return c.hierAllToAllv(send, sendCounts, recv, recvCounts, dt)
	}
	return runNow(c.allToAllv(send, sendCounts, recv, recvCounts, dt))
}

// Barrier blocks until every node of the communicator has entered it,
// implemented as a zero-length combine-to-all.
func (c *Comm) Barrier() error {
	return runNow(c.barrier())
}
