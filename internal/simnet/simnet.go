// Package simnet is a discrete-event simulator of a two-dimensional
// wormhole-routed mesh — the paper's target architecture (§2) — standing in
// for the 512-node Intel Paragon we do not have. It implements the
// transport.Endpoint interface, so the same collective algorithm code that
// runs over channels and sockets also runs here, in virtual time:
//
//   - point-to-point messages cost α + nβ seconds;
//   - a node sends to at most one node and receives from at most one node
//     at a time, but can do both simultaneously;
//   - messages sharing a physical link share its bandwidth (max-min fairly),
//     with mesh links carrying LinkExcess× the node-injection bandwidth
//     (§7.1's "excess of bandwidth on each link");
//   - combine arithmetic costs γ per byte, charged via transport.Elapse.
//
// The simulator detects communication deadlocks and reports every blocked
// operation, and can inject deterministic per-message latency noise to
// model the operating-system timing irregularities of §8.
package simnet

import (
	"fmt"
	"runtime/debug"
	"sort"

	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/transport"
)

// Config describes the simulated machine.
type Config struct {
	// Rows and Cols give the physical mesh extents; node (r, c) has rank
	// r*Cols + c. A linear array is 1×p.
	Rows, Cols int
	// Hypercube switches the interconnect to a d-dimensional hypercube of
	// Rows×Cols nodes (which must be a power of two) with
	// dimension-ordered routing — the iPSC/860-style machine of §11.
	Hypercube bool
	// Machine supplies α, β, γ and LinkExcess.
	Machine model.Machine
	// CarryData selects whether payload bytes are actually transported.
	// Correctness tests set it; large performance experiments leave it
	// false so that simulating a megabyte broadcast on 512 nodes does not
	// cost real memory bandwidth. Collectives consult
	// transport.CarriesData and skip payload work in timing-only mode
	// while still charging γ.
	CarryData bool
	// NoiseAmp, when positive, adds a deterministic pseudo-random extra
	// startup latency in [0, NoiseAmp) seconds to every message,
	// modelling OS timing irregularity (§8). NoiseSeed selects the
	// sequence.
	NoiseAmp  float64
	NoiseSeed int64
	// Levels, when non-empty, replaces the wormhole mesh with a switched
	// tree of nested blocks (racks containing nodes containing sockets),
	// coarsest level first; a single level is a modern cluster of
	// multi-rank nodes. A message whose endpoints first diverge at level l
	// pays Levels[l]'s α and β and occupies the source-side uplink and
	// destination-side downlink of every block boundary it crosses (each
	// block at each level owns one shared uplink and one downlink — the
	// NIC behind which all of a node's ranks sit — so concurrent flows
	// leaving a block share its capacity and deep traffic contends on
	// every level it traverses); messages within one deepest block pay
	// Machine's parameters and contend only at the per-rank
	// injection/ejection channels. Mesh links are not used: rank ids
	// carry no positional meaning on a switched fabric, and the switch
	// cores are modelled as non-blocking. Mutually exclusive with
	// Hypercube.
	Levels []Level
}

// Level describes one tree level of a hierarchical Config, coarsest
// first.
type Level struct {
	// Size partitions ranks into consecutive blocks of Size (the last may
	// be smaller); each finer level's Size must divide the coarser one.
	// Of, when non-nil, overrides it with an explicit rank→block map (one
	// entry per rank, arbitrary labels, blocks nesting inside the coarser
	// level) — modelling placements that do not follow block-major order.
	Size int
	Of   []int
	// Alpha and Beta price messages whose endpoints first diverge at this
	// level.
	Alpha, Beta float64
}

// levelAssigns returns the per-level rank→block assignments of a tree
// config, coarsest first.
func (c Config) levelAssigns() [][]int {
	n := c.Rows * c.Cols
	out := make([][]int, len(c.Levels))
	for l, lv := range c.Levels {
		if lv.Of != nil {
			out[l] = lv.Of
			continue
		}
		of := make([]int, n)
		for i := range of {
			of[i] = i / lv.Size
		}
		out[l] = of
	}
	return out
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Rows < 1 || c.Cols < 1 {
		return fmt.Errorf("simnet: mesh %dx%d invalid", c.Rows, c.Cols)
	}
	if c.Hypercube {
		n := c.Rows * c.Cols
		if n&(n-1) != 0 {
			return fmt.Errorf("simnet: hypercube needs a power-of-two node count, got %d", n)
		}
	}
	if len(c.Levels) > 0 {
		if c.Hypercube {
			return fmt.Errorf("simnet: Levels is mutually exclusive with Hypercube")
		}
		n := c.Rows * c.Cols
		for l, lv := range c.Levels {
			if lv.Alpha < 0 || lv.Beta <= 0 {
				return fmt.Errorf("simnet: tree level %d needs α ≥ 0 and β > 0, got α=%g β=%g", l, lv.Alpha, lv.Beta)
			}
			if lv.Of != nil {
				if len(lv.Of) != n {
					return fmt.Errorf("simnet: tree level %d covers %d ranks, machine has %d", l, len(lv.Of), n)
				}
			} else if lv.Size < 1 {
				return fmt.Errorf("simnet: tree level %d block size %d", l, lv.Size)
			}
		}
		// NewTopology checks that every level nests inside the one above.
		if _, err := group.NewTopology(c.levelAssigns()...); err != nil {
			return err
		}
	}
	return c.Machine.Validate()
}

// Hierarchy returns the per-level machine parameters of the configured
// interconnect, coarsest first: each tree level's α and β substituted
// into the base machine, with the base machine itself pricing the
// deepest blocks. Flat configurations yield a single level, so the
// collective layer can always plan with the same parameters the network
// charges.
func (c Config) Hierarchy() model.Hierarchy {
	if len(c.Levels) > 0 {
		machines := make([]model.Machine, len(c.Levels)+1)
		for l, lv := range c.Levels {
			m := c.Machine
			m.Alpha, m.Beta = lv.Alpha, lv.Beta
			machines[l] = m
		}
		machines[len(c.Levels)] = c.Machine
		return model.Hierarchy{Machines: machines}
	}
	return model.UniformHierarchy(c.Machine)
}

// Result reports aggregate statistics of a simulation run.
type Result struct {
	// Time is the virtual completion time in seconds: the maximum node
	// clock when the last node finished.
	Time float64
	// NodeTimes holds each node's final virtual clock.
	NodeTimes []float64
	// Messages counts matched point-to-point messages.
	Messages int64
	// BytesMoved sums delivered payload lengths.
	BytesMoved float64
}

// Run simulates fn on every node of the configured mesh and returns
// aggregate statistics. fn runs once per node (SPMD); its endpoint carries
// virtual time. The returned error is the first node error by rank, or a
// deadlock diagnosis.
func Run(cfg Config, fn func(ep *Endpoint) error) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	e := newEngine(cfg)
	for _, p := range e.procs {
		p := p
		ep := &Endpoint{e: e, proc: p}
		go func() {
			<-p.resume
			defer func() {
				if r := recover(); r != nil {
					p.err = fmt.Errorf("simnet: node %d panicked: %v\n%s", p.id, r, debug.Stack())
				}
				p.exited = true
				e.yield <- struct{}{}
			}()
			p.err = fn(ep)
		}()
	}
	runErr := e.run()
	res := Result{
		NodeTimes:  make([]float64, len(e.procs)),
		Messages:   e.messages,
		BytesMoved: e.moved,
	}
	for i, p := range e.procs {
		res.NodeTimes[i] = p.clock
		if p.clock > res.Time {
			res.Time = p.clock
		}
	}
	var firstErr error
	for _, p := range e.procs {
		if p.err != nil {
			firstErr = fmt.Errorf("simnet: node %d: %w", p.id, p.err)
			break
		}
	}
	if firstErr == nil {
		firstErr = runErr
	}
	return res, firstErr
}

// Endpoint is one simulated node's transport handle. It implements
// transport.Endpoint and transport.Clock.
type Endpoint struct {
	e    *engine
	proc *proc
}

var (
	_ transport.Endpoint    = (*Endpoint)(nil)
	_ transport.Clock       = (*Endpoint)(nil)
	_ transport.DataCarrier = (*Endpoint)(nil)
	_ transport.Aborter     = (*Endpoint)(nil)
	_ transport.Recoverer   = (*Endpoint)(nil)
)

// Abort poisons the simulation with this node as origin: every blocked
// operation on every node fails immediately (in virtual time) and every
// later post returns the abort error without blocking. Like every endpoint
// method it must be called by the goroutine currently holding the node's
// scheduling baton. A concurrent abort merges its failed set into the
// first; an abort naming only ranks already agreed dead is a late
// duplicate and is suppressed.
func (ep *Endpoint) Abort(reason error) {
	e := ep.e
	ae := transport.ToAbortError(ep.proc.id, reason)
	if cur, ok := e.abortErr.(*transport.AbortError); ok {
		cur.Failed = transport.MergeFailed(cur.Failed, ae.Failed)
		return
	}
	if e.epoch > 0 && allDead(e.dead, ae.Failed) {
		return
	}
	e.abortErr = ae
	e.lastAbort = ae
	e.failBlocked(e.abortErr)
}

func allDead(dead map[int]bool, failed []int) bool {
	for _, r := range failed {
		if !dead[r] {
			return false
		}
	}
	return true
}

// AbortErr returns the simulation's poisoning error, the stale-epoch
// error if the world recovered past this node, or nil.
func (ep *Endpoint) AbortErr() error {
	e := ep.e
	if e.abortErr != nil {
		return e.abortErr
	}
	if e.procSeen[ep.proc.id] < e.epoch {
		return e.staleErr(ep.proc.id)
	}
	return nil
}

// Reset acknowledges the current poison, marks the given nodes dead, and
// moves this node into the next epoch. The first survivor to Reset clears
// the shared poison and bumps the engine epoch; posts by nodes that have
// not yet Reset keep failing with a stale-epoch error. Must be called
// while holding the scheduling baton, like every endpoint method.
func (ep *Endpoint) Reset(failed []int) {
	e := ep.e
	for _, r := range failed {
		e.dead[r] = true
	}
	if e.abortErr != nil {
		e.abortErr = nil
		e.epoch++
	}
	e.procSeen[ep.proc.id] = e.epoch
}

// Failed returns the sorted set of nodes agreed dead.
func (ep *Endpoint) Failed() []int {
	out := make([]int, 0, len(ep.e.dead))
	for r := range ep.e.dead {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// Epoch returns the engine's current epoch.
func (ep *Endpoint) Epoch() int { return ep.e.epoch }

// Rank returns the node id (row*Cols + col).
func (ep *Endpoint) Rank() int { return ep.proc.id }

// Size returns the number of nodes in the mesh.
func (ep *Endpoint) Size() int { return ep.e.topo.nodes() }

// Machine returns the simulated machine's parameters, letting the
// collective layer plan with the same model the network obeys.
func (ep *Endpoint) Machine() model.Machine { return ep.e.cfg.Machine }

// TwoLevel returns the coarsest level's and the base machine's parameters
// as a two-level pair, for callers outside the library that still name
// the two levels; the library itself plans with Hierarchy.
func (ep *Endpoint) TwoLevel() model.TwoLevel {
	return model.TwoLevel{Global: ep.Hierarchy().At(0), Local: ep.e.cfg.Machine}
}

// Hierarchy returns the configured per-level machine parameters
// (Config.Hierarchy), coarsest first.
func (ep *Endpoint) Hierarchy() model.Hierarchy { return ep.e.cfg.Hierarchy() }

// CarriesData reports whether payload bytes are transported (Config.CarryData).
func (ep *Endpoint) CarriesData() bool { return ep.e.cfg.CarryData }

// Now returns this node's local virtual time in seconds.
func (ep *Endpoint) Now() float64 { return ep.proc.clock }

// Elapse advances this node's local virtual clock, modelling computation.
func (ep *Endpoint) Elapse(seconds float64) {
	if seconds > 0 {
		ep.proc.clock += seconds
	}
}

// Send transmits p to rank to, blocking (in virtual time) until delivery
// completes — the synchronous semantics under which the paper's cost
// formulas are derived.
func (ep *Endpoint) Send(to int, tag transport.Tag, p []byte) error {
	if err := transport.CheckPeer(ep.proc.id, ep.e.topo.nodes(), to); err != nil {
		return err
	}
	o := &op{kind: opSend, proc: ep.proc, peer: to, tag: tag, size: len(p), postAt: ep.proc.clock}
	if ep.e.cfg.CarryData {
		o.data = append([]byte(nil), p...)
	}
	ep.e.postOps(ep.proc, o)
	return o.err
}

// Recv receives from rank from into p, blocking in virtual time.
func (ep *Endpoint) Recv(from int, tag transport.Tag, p []byte) (int, error) {
	if err := transport.CheckPeer(ep.proc.id, ep.e.topo.nodes(), from); err != nil {
		return 0, err
	}
	o := &op{kind: opRecv, proc: ep.proc, peer: from, tag: tag, size: len(p), postAt: ep.proc.clock}
	if ep.e.cfg.CarryData {
		o.data = p
	}
	ep.e.postOps(ep.proc, o)
	if o.err != nil {
		return 0, o.err
	}
	return o.size, nil
}

// SendRecv posts the send and the receive simultaneously and blocks until
// both complete, exploiting the machine's ability to send and receive at
// the same time (§2) — the operation every bucket (ring) primitive is
// built on.
func (ep *Endpoint) SendRecv(to int, stag transport.Tag, sp []byte, from int, rtag transport.Tag, rp []byte) (int, error) {
	if err := transport.CheckPeer(ep.proc.id, ep.e.topo.nodes(), to); err != nil {
		return 0, err
	}
	if err := transport.CheckPeer(ep.proc.id, ep.e.topo.nodes(), from); err != nil {
		return 0, err
	}
	so := &op{kind: opSend, proc: ep.proc, peer: to, tag: stag, size: len(sp), postAt: ep.proc.clock}
	ro := &op{kind: opRecv, proc: ep.proc, peer: from, tag: rtag, size: len(rp), postAt: ep.proc.clock}
	if ep.e.cfg.CarryData {
		so.data = append([]byte(nil), sp...)
		ro.data = rp
	}
	ep.e.postOps(ep.proc, so, ro)
	if ro.err != nil {
		return 0, ro.err
	}
	if so.err != nil {
		return 0, so.err
	}
	return ro.size, nil
}

// Close is a no-op for simulated endpoints; the run ends when fn returns.
func (ep *Endpoint) Close() error { return nil }
