package icc

import (
	"fmt"
	"math"
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
	// Plan-amortization state (persistent.go, nonblocking.go, request.go).
	// All lazily initialized under planMu, so communicators built by
	// derive start with valid zero values. shapeMemo short-circuits
	// shape resolution for repeated (collective, length) calls on the
	// blocking path; plans caches full step plans for the persistent and
	// non-blocking paths; hits/misses feed PlanCacheStats.
	planMu    sync.Mutex
	shapeMemo map[shapeKey]Shape
	plans     map[planKey]*core.Plan
	planHits  atomic.Int64
	planMiss  atomic.Int64
	// bufPool recycles the staging buffers plan replays and the blocking
	// reductions, scatters and gathers work in.
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
// n-byte vector, memoized per (collective, length): a long-lived
// communicator issuing the same collective repeatedly resolves its shape
// once and hits the memo ever after.
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

// staging takes a pooled buffer set with work and tmp vectors of the given
// lengths; like every pooled buffer they arrive holding old data. On
// timing-only transports no payload moves and the set is the shared empty
// one. The caller returns the set with putBufs.
func (c *Comm) staging(work, tmp int) *execBufs {
	if !c.carries() {
		return noStaging
	}
	return c.getBufs(work, tmp, 0)
}

var noStaging = &execBufs{} // never written, never pooled

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

// vecBytes validates an element count and returns the vector's byte
// length count·dt.Size()·scale, rejecting negative counts and products
// that overflow int — the arguments that previously crashed the process
// inside makeslice. As the funnel every vector collective validates
// through, it also runs the epoch guard.
func (c *Comm) vecBytes(count int, dt Type, scale int) (int, error) {
	if err := c.guard(); err != nil {
		return 0, err
	}
	if count < 0 {
		return 0, fmt.Errorf("icc: negative count %d", count)
	}
	es := dt.Size()
	if es <= 0 {
		return 0, fmt.Errorf("icc: invalid element size %d", es)
	}
	if count > 0 && es > math.MaxInt/count {
		return 0, fmt.Errorf("icc: vector of %d × %d-byte elements overflows", count, es)
	}
	n := count * es
	if scale > 1 && n > 0 && scale > math.MaxInt/n {
		return 0, fmt.Errorf("icc: vector of %d × %d × %d bytes overflows", scale, count, es)
	}
	return n * scale, nil
}

// Bcast broadcasts count elements of type dt from root to every node, in
// place in buf (Table 1: x at all Pj).
func (c *Comm) Bcast(buf []byte, count int, dt Type, root int) error {
	n, err := c.vecBytes(count, dt, 1)
	if err != nil {
		return err
	}
	return core.Bcast(c.ctx(), c.shape(model.Bcast, n), root, buf, count, dt.Size())
}

// Reduce combines each node's count-element send vector with op and leaves
// the result in recv on the root (Table 1: ⊕y(j) at Pk). recv is only
// written on the root and must not overlap send.
func (c *Comm) Reduce(send, recv []byte, count int, dt Type, op Op, root int) error {
	n, err := c.vecBytes(count, dt, 1)
	if err != nil {
		return err
	}
	eb := c.staging(n, n)
	defer c.putBufs(eb)
	work, tmp := eb.buf, eb.tmp
	if c.carries() {
		if len(send) < n {
			return fmt.Errorf("icc: reduce send buffer %d bytes, need %d", len(send), n)
		}
		copy(work, send[:n])
	}
	if err := core.Reduce(c.ctx(), c.shape(model.Reduce, n), root, work, tmp, count, dt, op); err != nil {
		return err
	}
	if c.me == root && c.carries() {
		if len(recv) < n {
			return fmt.Errorf("icc: reduce recv buffer %d bytes, need %d", len(recv), n)
		}
		copy(recv[:n], work)
	}
	return nil
}

// AllReduce combines each node's send vector and leaves the result in recv
// on every node (Table 1: ⊕y(j) at all Pj).
func (c *Comm) AllReduce(send, recv []byte, count int, dt Type, op Op) error {
	n, err := c.vecBytes(count, dt, 1)
	if err != nil {
		return err
	}
	eb := c.staging(n, n)
	defer c.putBufs(eb)
	work, tmp := eb.buf, eb.tmp
	if c.carries() {
		if len(send) < n || len(recv) < n {
			return fmt.Errorf("icc: all-reduce buffers %d/%d bytes, need %d", len(send), len(recv), n)
		}
		copy(work, send[:n])
	}
	if err := core.AllReduce(c.ctx(), c.shape(model.AllReduce, n), work, tmp, count, dt, op); err != nil {
		return err
	}
	if c.carries() {
		copy(recv[:n], work)
	}
	return nil
}

// Scatter splits root's send vector into equal count-element segments and
// delivers segment i to node i's recv (Table 1: xj at Pj). send is read
// only on the root.
func (c *Comm) Scatter(send, recv []byte, count int, dt Type, root int) error {
	if _, err := c.vecBytes(count, dt, c.Size()); err != nil {
		return err
	}
	return c.Scatterv(send, c.equalCounts(count), recv, dt, root)
}

// Scatterv is Scatter with per-node element counts; node i receives
// counts[i] elements.
func (c *Comm) Scatterv(send []byte, counts []int, recv []byte, dt Type, root int) error {
	offs, total, err := c.offsets(counts, dt)
	if err != nil {
		return err
	}
	eb := c.staging(total, 0)
	defer c.putBufs(eb)
	work := eb.buf
	if c.carries() {
		if c.me == root {
			if len(send) < total {
				return fmt.Errorf("icc: scatter send buffer %d bytes, need %d", len(send), total)
			}
			copy(work, send[:total])
		}
		if len(recv) < offs[c.me+1]-offs[c.me] {
			return fmt.Errorf("icc: scatter recv buffer %d bytes, need %d", len(recv), offs[c.me+1]-offs[c.me])
		}
	}
	if err := core.Scatter(c.ctx(), c.shape(model.Scatter, total), root, work, counts, dt.Size()); err != nil {
		return err
	}
	if c.carries() {
		copy(recv, work[offs[c.me]:offs[c.me+1]])
	}
	return nil
}

// Gather assembles each node's count-element send segment into recv on the
// root (Table 1: x at Pk). recv is only written on the root.
func (c *Comm) Gather(send, recv []byte, count int, dt Type, root int) error {
	if _, err := c.vecBytes(count, dt, c.Size()); err != nil {
		return err
	}
	return c.Gatherv(send, c.equalCounts(count), recv, dt, root)
}

// Gatherv is Gather with per-node element counts.
func (c *Comm) Gatherv(send []byte, counts []int, recv []byte, dt Type, root int) error {
	offs, total, err := c.offsets(counts, dt)
	if err != nil {
		return err
	}
	eb := c.staging(total, 0)
	defer c.putBufs(eb)
	work := eb.buf
	mine := offs[c.me+1] - offs[c.me]
	if c.carries() {
		if len(send) < mine {
			return fmt.Errorf("icc: gather send buffer %d bytes, need %d", len(send), mine)
		}
		copy(work[offs[c.me]:offs[c.me+1]], send[:mine])
	}
	if err := core.Gather(c.ctx(), c.shape(model.Gather, total), root, work, counts, dt.Size()); err != nil {
		return err
	}
	if c.me == root && c.carries() {
		if len(recv) < total {
			return fmt.Errorf("icc: gather recv buffer %d bytes, need %d", len(recv), total)
		}
		copy(recv[:total], work)
	}
	return nil
}

// Collect assembles each node's count-element send segment on every node
// (Table 1: x at all Pj) — the all-gather.
func (c *Comm) Collect(send, recv []byte, count int, dt Type) error {
	if _, err := c.vecBytes(count, dt, c.Size()); err != nil {
		return err
	}
	return c.Collectv(send, c.equalCounts(count), recv, dt)
}

// Collectv is Collect with per-node element counts — the "known lengths"
// collect of Table 3. recv spans the whole vector on every node and is
// used as the working buffer.
func (c *Comm) Collectv(send []byte, counts []int, recv []byte, dt Type) error {
	offs, total, err := c.offsets(counts, dt)
	if err != nil {
		return err
	}
	mine := offs[c.me+1] - offs[c.me]
	if c.carries() {
		if len(send) < mine {
			return fmt.Errorf("icc: collect send buffer %d bytes, need %d", len(send), mine)
		}
		if len(recv) < total {
			return fmt.Errorf("icc: collect recv buffer %d bytes, need %d", len(recv), total)
		}
		copy(recv[offs[c.me]:offs[c.me+1]], send[:mine])
	}
	var buf []byte
	if c.carries() {
		buf = recv[:total]
	}
	return core.Collect(c.ctx(), c.shape(model.Collect, total), buf, counts, dt.Size())
}

// ReduceScatter combines every node's full send vector with op and leaves
// segment i (counts[i] elements) in node i's recv — Table 1's distributed
// combine.
func (c *Comm) ReduceScatter(send []byte, counts []int, recv []byte, dt Type, op Op) error {
	offs, total, err := c.offsets(counts, dt)
	if err != nil {
		return err
	}
	eb := c.staging(total, total)
	defer c.putBufs(eb)
	work, tmp := eb.buf, eb.tmp
	mine := offs[c.me+1] - offs[c.me]
	if c.carries() {
		if len(send) < total {
			return fmt.Errorf("icc: reduce-scatter send buffer %d bytes, need %d", len(send), total)
		}
		if len(recv) < mine {
			return fmt.Errorf("icc: reduce-scatter recv buffer %d bytes, need %d", len(recv), mine)
		}
		copy(work, send[:total])
	}
	if err := core.ReduceScatter(c.ctx(), c.shape(model.ReduceScatter, total), work, tmp, counts, dt, op); err != nil {
		return err
	}
	if c.carries() {
		copy(recv[:mine], work[offs[c.me]:offs[c.me+1]])
	}
	return nil
}

// AllToAll performs the complete exchange with equal per-pair counts:
// send holds Size() blocks of count elements, block j destined to rank j;
// on return recv holds Size() blocks, block j originating at rank j (the
// distributed transpose). The automatic policy picks between the Bruck
// relay (short vectors, ⌈log₂p⌉ steps) and the rotation/pairwise schedule
// (long vectors, bandwidth-optimal) analytically, and composes the
// exchange hierarchically on clustered communicators when the two-level
// model predicts a win. send and recv must not overlap.
func (c *Comm) AllToAll(send, recv []byte, count int, dt Type) error {
	n, err := c.vecBytes(count, dt, c.Size())
	if err != nil {
		return err
	}
	var sb, rb []byte
	if c.carries() {
		if len(send) < n || len(recv) < n {
			return fmt.Errorf("icc: all-to-all buffers %d/%d bytes, need %d", len(send), len(recv), n)
		}
		// The core only reads send and fully writes recv, so the user's
		// buffers serve directly — no staging copies on the one collective
		// whose vectors span p·count elements.
		sb, rb = send[:n], recv[:n]
	}
	return core.AllToAll(c.ctx(), c.shape(model.AllToAll, n), sb, rb, count, dt.Size())
}

// AllToAllv is AllToAll with per-pair element counts: this rank sends
// sendCounts[j] elements to rank j and receives recvCounts[j] elements
// from rank j, so rank i's sendCounts[j] must equal rank j's
// recvCounts[i]. By default blocks travel directly (the pairwise
// schedule): relaying schedules would require the full count matrix,
// which — as in MPI_Alltoallv — no single rank holds. Under AlgHier on a
// clustered communicator the library assembles that matrix on the fly
// (leaders allgather their members' count rows) and runs the ragged
// cluster exchange, aggregating every cluster-pair's blocks into one
// coarse-network message. The policy gate is the algorithm choice, not
// the byte count, so every rank takes the same path even though their
// vector lengths differ.
func (c *Comm) AllToAllv(send []byte, sendCounts []int, recv []byte, recvCounts []int, dt Type) error {
	_, sTotal, err := c.offsets(sendCounts, dt)
	if err != nil {
		return err
	}
	_, rTotal, err := c.offsets(recvCounts, dt)
	if err != nil {
		return err
	}
	var sb, rb []byte
	if c.carries() {
		if len(send) < sTotal {
			return fmt.Errorf("icc: all-to-allv send buffer %d bytes, need %d", len(send), sTotal)
		}
		if len(recv) < rTotal {
			return fmt.Errorf("icc: all-to-allv recv buffer %d bytes, need %d", len(recv), rTotal)
		}
		sb, rb = send[:sTotal], recv[:rTotal]
	}
	var s Shape
	if c.alg.kind == algHier && c.hasTopo {
		s = model.HierShape()
	}
	return core.AllToAllv(c.ctx(), s, sb, sendCounts, rb, recvCounts, dt.Size())
}

// Barrier blocks until every node of the communicator has entered it,
// implemented as a zero-length combine-to-all.
func (c *Comm) Barrier() error {
	if err := c.guard(); err != nil {
		return err
	}
	s := model.MSTShape(c.layout)
	return core.AllReduce(c.ctx(), s, nil, nil, 0, Uint8, Sum)
}

// offsets validates counts and returns byte offsets plus the total byte
// length.
func (c *Comm) offsets(counts []int, dt Type) ([]int, int, error) {
	if err := c.guard(); err != nil {
		return nil, 0, err
	}
	if len(counts) != c.Size() {
		return nil, 0, fmt.Errorf("icc: %d counts for communicator of %d", len(counts), c.Size())
	}
	es := dt.Size()
	offs := make([]int, len(counts)+1)
	for i, n := range counts {
		if n < 0 {
			return nil, 0, fmt.Errorf("icc: negative count %d at %d", n, i)
		}
		if n > 0 && (es > math.MaxInt/n || offs[i] > math.MaxInt-n*es) {
			return nil, 0, fmt.Errorf("icc: counts overflow at %d", i)
		}
		offs[i+1] = offs[i] + n*es
	}
	return offs, offs[len(counts)], nil
}
