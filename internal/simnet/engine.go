package simnet

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/transport"
)

// The engine is a process-oriented discrete-event simulator. Each simulated
// node is a goroutine; exactly one runs at a time, handing a scheduling
// baton back to the engine whenever it blocks on a message operation. The
// engine advances virtual time between batches of runnable nodes.
//
// Messages are modelled as flows: matched (sender posted, receiver posted)
// transfers that wait α seconds of startup latency and then move n·β
// seconds' worth of data at a rate set by progressive-filling max-min fair
// sharing over every directed channel of their XY path. This realizes the
// paper's model — α + nβ point-to-point, bandwidth shared under conflicts,
// send and receive concurrently but one partner at a time — while letting
// unanticipated conflicts emerge from the topology instead of from formulas.

type opKind uint8

const (
	opSend opKind = iota
	opRecv
)

func (k opKind) String() string {
	if k == opSend {
		return "send"
	}
	return "recv"
}

// op is one half of a posted point-to-point operation.
type op struct {
	kind   opKind
	proc   *proc
	peer   int
	tag    transport.Tag
	data   []byte // send: payload copy (nil in timing-only mode); recv: caller's buffer
	size   int    // send: payload length; recv: buffer capacity, then received length
	postAt float64
	err    error
	done   bool
}

// flow is a matched message in flight.
type flow struct {
	id         int64
	src, dst   int
	send, recv *op
	links      []int
	remSec     float64 // remaining transfer work: bytes × β
	rate       float64 // current share, 1.0 = full node bandwidth
	activateAt float64 // startup latency expires; data starts to move
	active     bool
	err        error // pre-determined failure (tag mismatch, truncation)
}

// proc is one simulated node's execution context.
type proc struct {
	id      int
	clock   float64
	resume  chan struct{}
	waiting []*op // outstanding ops (1 for Send/Recv, 2 for SendRecv)
	exited  bool
	err     error // fn's return value or recovered panic
}

type pairKey struct{ src, dst int }

type engine struct {
	cfg   Config
	topo  netTopology
	procs []*proc
	yield chan struct{}
	runq  []int // ids of runnable procs

	psend map[pairKey][]*op // posted, unmatched sends
	precv map[pairKey][]*op // posted, unmatched receives

	flows    []*flow
	nextFlow int64
	lastT    float64 // flow-engine time: rates are valid from here
	dirty    bool    // rates must be recomputed before advancing

	linkCap []float64 // capacity per directed channel
	// progressive-filling scratch, indexed by link id
	resid   []float64
	count   []int
	flowsAt [][]*flow
	touched []int

	messages int64
	moved    float64

	// abortErr, once set, poisons the simulation: every blocked operation
	// is failed with it and every later post returns it immediately. Only
	// ever touched by the goroutine holding the scheduling baton, like all
	// engine state. Recovery (Endpoint.Reset) clears it, bumps epoch, and
	// records the agreed dead set; lastAbort keeps the poison visible to
	// nodes that have not yet acknowledged the new epoch.
	abortErr  error
	lastAbort error
	epoch     int
	procSeen  []int        // per node: last epoch acknowledged via Reset
	dead      map[int]bool // world ranks agreed dead
}

func newEngine(cfg Config) *engine {
	var topo netTopology = newTopology(cfg.Rows, cfg.Cols)
	if cfg.Hypercube {
		topo = newCubeTopology(cfg.Rows * cfg.Cols)
	}
	if len(cfg.Levels) > 0 {
		topo = newTreeTopology(cfg.Rows*cfg.Cols, cfg.levelAssigns())
	}
	e := &engine{
		cfg:   cfg,
		topo:  topo,
		yield: make(chan struct{}),
		psend: make(map[pairKey][]*op),
		precv: make(map[pairKey][]*op),
	}
	nl := topo.numLinks()
	e.linkCap = make([]float64, nl)
	for l := 0; l < nl; l++ {
		if topo.isMeshLink(l) {
			e.linkCap[l] = cfg.Machine.LinkExcess
		} else {
			e.linkCap[l] = 1
		}
	}
	e.resid = make([]float64, nl)
	e.count = make([]int, nl)
	e.flowsAt = make([][]*flow, nl)
	n := topo.nodes()
	e.procs = make([]*proc, n)
	for i := 0; i < n; i++ {
		e.procs[i] = &proc{id: i, resume: make(chan struct{}, 1)}
	}
	e.procSeen = make([]int, n)
	e.dead = make(map[int]bool)
	return e
}

// staleErr describes a post by a node whose acknowledged epoch predates
// the engine's: an abort was raised and cleared while it was computing.
func (e *engine) staleErr(node int) error {
	return fmt.Errorf("%w: node %d at epoch %d, world at %d: %w",
		transport.ErrStaleEpoch, node, e.procSeen[node], e.epoch, e.lastAbort)
}

// yieldWait hands the baton to the engine and blocks until rescheduled.
// It must be called by the proc's own goroutine while holding the baton.
func (e *engine) yieldWait(p *proc) {
	e.yield <- struct{}{}
	<-p.resume
}

// postOps registers ops for proc p (which holds the baton), matching each
// against the peer's posted counterpart if present, then blocks p until all
// complete. It returns nothing; callers read results out of the ops.
func (e *engine) postOps(p *proc, ops ...*op) {
	// Recovery-tagged operations run through the poison: the agreement
	// protocol is exactly the traffic that must flow while the world is
	// down. (A later abort still fails them via failBlocked — in the
	// rendezvous model that is safe, since an unmatched post vanishes with
	// its error and both sides retry.)
	rec := len(ops) > 0
	for _, o := range ops {
		if !o.tag.IsRecovery() {
			rec = false
		}
	}
	if !rec {
		if e.abortErr != nil {
			// The world is poisoned: fail without blocking (and without
			// yielding — the caller keeps the baton and will yield when its
			// proc exits or posts again).
			for _, o := range ops {
				o.done = true
				o.err = e.abortErr
			}
			return
		}
		if e.procSeen[p.id] < e.epoch {
			err := e.staleErr(p.id)
			for _, o := range ops {
				o.done = true
				o.err = err
			}
			return
		}
	}
	for _, o := range ops {
		// A post aimed at an agreed-dead node — or, for recovery control
		// traffic (which bypasses the poison gate above), at a node whose
		// goroutine already exited — fails the whole operation set
		// immediately rather than tripping the deadlock detector at
		// quiescence.
		if e.dead[o.peer] || (rec && e.procs[o.peer].exited) {
			err := error(&transport.PeerError{Peer: o.peer,
				Err: fmt.Errorf("%w: node %d is dead (node %d)", transport.ErrPeerFailed, o.peer, p.id)})
			for _, oo := range ops {
				oo.done = true
				oo.err = err
			}
			return
		}
	}
	p.waiting = append(p.waiting[:0], ops...)
	for _, o := range ops {
		var key pairKey
		var mine, theirs map[pairKey][]*op
		if o.kind == opSend {
			key = pairKey{src: p.id, dst: o.peer}
			mine, theirs = e.psend, e.precv
		} else {
			key = pairKey{src: o.peer, dst: p.id}
			mine, theirs = e.precv, e.psend
		}
		if q := theirs[key]; len(q) > 0 {
			other := q[0]
			copy(q, q[1:])
			theirs[key] = q[:len(q)-1]
			if o.kind == opSend {
				e.makeFlow(key, o, other)
			} else {
				e.makeFlow(key, other, o)
			}
		} else {
			mine[key] = append(mine[key], o)
		}
	}
	e.yieldWait(p)
}

// makeFlow matches a send with a receive.
func (e *engine) makeFlow(key pairKey, s, r *op) {
	alpha, beta := e.cfg.Machine.Alpha, e.cfg.Machine.Beta
	if tt, ok := e.topo.(treeTopology); ok {
		// Price the flow at the coarsest network level it crosses.
		if l := tt.divergeLevel(key.src, key.dst); l >= 0 {
			alpha, beta = e.cfg.Levels[l].Alpha, e.cfg.Levels[l].Beta
		}
	}
	f := &flow{
		id: e.nextFlow, src: key.src, dst: key.dst,
		send: s, recv: r,
		links:  e.topo.path(key.src, key.dst),
		remSec: float64(s.size) * beta,
	}
	e.nextFlow++
	e.messages++
	t0 := math.Max(s.postAt, r.postAt)
	f.activateAt = t0 + alpha + e.noise(f.id)
	if s.tag != r.tag {
		f.err = fmt.Errorf("%w: node %d expected tag %#x from %d, sender used %#x",
			transport.ErrTagMismatch, key.dst, uint32(r.tag), key.src, uint32(s.tag))
	} else if s.size > r.size {
		f.err = fmt.Errorf("%w: %d→%d: message %d bytes, buffer %d",
			transport.ErrTruncate, key.src, key.dst, s.size, r.size)
	}
	e.flows = append(e.flows, f)
}

// noise returns the deterministic pseudo-random extra latency for a flow,
// modelling operating-system timing irregularities (§8 blames these for
// theoretically superior pipelined algorithms losing in practice).
func (e *engine) noise(flowID int64) float64 {
	if e.cfg.NoiseAmp <= 0 {
		return 0
	}
	x := uint64(flowID) + uint64(e.cfg.NoiseSeed)*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	u := float64(x>>11) / float64(1<<53) // uniform in [0, 1)
	return u * e.cfg.NoiseAmp
}

// run drives the simulation to completion: schedule every runnable proc,
// and when none remain, advance virtual time to the next flow event. It
// returns a deadlock error if blocked procs remain with no event pending.
func (e *engine) run() error {
	live := 0
	for _, p := range e.procs {
		e.runq = append(e.runq, p.id)
		live++
	}
	var deadlock error
	for live > 0 {
		if len(e.runq) > 0 {
			sort.Ints(e.runq)
			p := e.procs[e.runq[0]]
			e.runq = e.runq[1:]
			p.resume <- struct{}{}
			<-e.yield
			if p.exited {
				live--
			}
			continue
		}
		if !e.advance() {
			// No events, no runnable procs, live procs remain: deadlock.
			deadlock = e.deadlockError()
			e.failBlocked(deadlock)
			if len(e.runq) == 0 {
				// Nothing was blocked on ops; remaining procs are
				// unreachable (should not happen). Bail out.
				return deadlock
			}
		}
	}
	return deadlock
}

// advance moves virtual time to the next flow activation or completion and
// processes every event at that instant. It reports false when no event is
// pending.
func (e *engine) advance() bool {
	if e.dirty {
		e.recomputeRates()
		e.dirty = false
	}
	tNext := math.Inf(1)
	for _, f := range e.flows {
		tf := e.eventTime(f)
		if tf < tNext {
			tNext = tf
		}
	}
	if math.IsInf(tNext, 1) {
		return false
	}
	var completions, activations []*flow
	for _, f := range e.flows {
		if e.eventTime(f) == tNext {
			if f.active {
				completions = append(completions, f)
			} else {
				activations = append(activations, f)
			}
		}
	}
	// Drain transfers over [lastT, tNext] at current rates.
	if dt := tNext - e.lastT; dt > 0 {
		for _, f := range e.flows {
			if f.active {
				f.remSec -= f.rate * dt
				if f.remSec < 0 {
					f.remSec = 0
				}
			}
		}
	}
	e.lastT = tNext
	for _, f := range completions {
		f.remSec = 0
		e.complete(f, tNext)
	}
	for _, f := range activations {
		if f.err != nil || f.remSec == 0 {
			e.complete(f, tNext)
			continue
		}
		f.active = true
		e.dirty = true
	}
	return true
}

// eventTime returns the next event time for a flow: activation, or
// completion at its current rate.
func (e *engine) eventTime(f *flow) float64 {
	if !f.active {
		return f.activateAt
	}
	if f.rate <= 0 {
		return math.Inf(1) // cannot happen once rates are computed
	}
	return e.lastT + f.remSec/f.rate
}

// complete finishes a flow at time t: deliver payload and results, advance
// both procs' clocks, and wake them if all their ops are done.
func (e *engine) complete(f *flow, t float64) {
	for i, g := range e.flows {
		if g == f {
			e.flows = append(e.flows[:i], e.flows[i+1:]...)
			break
		}
	}
	e.dirty = true
	f.send.done, f.recv.done = true, true
	f.send.err, f.recv.err = f.err, f.err
	if f.err == nil {
		f.recv.size = f.send.size
		if f.recv.data != nil && f.send.data != nil {
			copy(f.recv.data, f.send.data)
		}
		e.moved += float64(f.send.size)
	}
	for _, o := range []*op{f.send, f.recv} {
		p := o.proc
		if t > p.clock {
			p.clock = t
		}
		e.opFinished(p)
	}
}

// opFinished checks whether proc p still has outstanding ops and, if not,
// makes it runnable again.
func (e *engine) opFinished(p *proc) {
	allDone := true
	for _, o := range p.waiting {
		if !o.done {
			allDone = false
		}
	}
	if allDone && len(p.waiting) > 0 {
		p.waiting = p.waiting[:0]
		e.runq = append(e.runq, p.id)
	}
}

// recomputeRates assigns max-min fair rates to all active flows by
// progressive filling: repeatedly saturate the most contended channel.
func (e *engine) recomputeRates() {
	var unfrozen int
	e.touched = e.touched[:0]
	for _, f := range e.flows {
		if !f.active {
			continue
		}
		f.rate = -1
		unfrozen++
		for _, l := range f.links {
			if e.count[l] == 0 {
				e.resid[l] = e.linkCap[l]
				e.touched = append(e.touched, l)
			}
			e.count[l]++
			e.flowsAt[l] = append(e.flowsAt[l], f)
		}
	}
	sort.Ints(e.touched)
	for unfrozen > 0 {
		// Find the bottleneck: smallest per-flow share.
		best, bestShare := -1, math.Inf(1)
		for _, l := range e.touched {
			if e.count[l] == 0 {
				continue
			}
			share := e.resid[l] / float64(e.count[l])
			if share < bestShare {
				best, bestShare = l, share
			}
		}
		if best < 0 {
			break // cannot happen: every unfrozen flow crosses some link
		}
		for _, f := range e.flowsAt[best] {
			if f.rate >= 0 {
				continue
			}
			f.rate = bestShare
			unfrozen--
			for _, l := range f.links {
				e.resid[l] -= bestShare
				if e.resid[l] < 0 {
					e.resid[l] = 0
				}
				e.count[l]--
			}
		}
	}
	for _, l := range e.touched {
		e.count[l] = 0
		e.resid[l] = 0
		e.flowsAt[l] = e.flowsAt[l][:0]
	}
}

// deadlockError describes every blocked operation, the diagnostic a
// developer needs when a collective's send/receive order is wrong.
func (e *engine) deadlockError() error {
	var b strings.Builder
	b.WriteString("simnet: deadlock: no pending message events; blocked operations:")
	n := 0
	for _, p := range e.procs {
		for _, o := range p.waiting {
			if !o.done {
				fmt.Fprintf(&b, "\n  node %d: %v %s %d (tag %#x)", p.id, o.kind, peerWord(o.kind), o.peer, uint32(o.tag))
				n++
				if n > 20 {
					fmt.Fprintf(&b, "\n  …")
					return fmt.Errorf("%s", b.String())
				}
			}
		}
	}
	return fmt.Errorf("%s", b.String())
}

func peerWord(k opKind) string {
	if k == opSend {
		return "to"
	}
	return "from"
}

// failBlocked errors out every outstanding op so blocked procs return.
func (e *engine) failBlocked(err error) {
	for _, p := range e.procs {
		if p.exited || len(p.waiting) == 0 {
			continue
		}
		for _, o := range p.waiting {
			if !o.done {
				o.done = true
				o.err = err
			}
		}
		p.waiting = p.waiting[:0]
		e.runq = append(e.runq, p.id)
	}
	// Unmatched queues are now moot.
	e.psend = make(map[pairKey][]*op)
	e.precv = make(map[pairKey][]*op)
	e.flows = nil
}
