// Package chantransport implements the transport.Endpoint interface over Go
// channels: p ranks inside one process, one buffered channel per ordered
// (sender, receiver) pair. It is the reference functional substrate — fast,
// deterministic in matching (FIFO per pair), and with optional receive
// timeouts so that a deadlocked collective fails a test instead of hanging
// it.
//
// Send blocks only while its pair's queue is full. SendRecv runs both halves
// on the caller's goroutine, in whichever order they become ready, so a full
// ring of simultaneous exchanges cannot deadlock at any buffer depth ≥ 1.
// A steady-state message costs no goroutine, no timer construction, no
// world-wide lock and no heap allocation: the abort/epoch state is read from
// an atomically published snapshot, the receive deadline is a per-endpoint
// timer armed only when an operation has to block, and payload buffers
// return to their sender once delivered.
package chantransport

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

type message struct {
	tag   transport.Tag
	data  []byte // owned by the message; copied on send
	epoch int    // sender's epoch at send time; receivers drop older frames
}

// World is a set of size ranks wired pairwise with buffered channels.
//
// Abort state is world-shared (the in-process form of an out-of-band
// broadcast) and generational: an abort poisons the current epoch, and a
// survivor's Reset clears the poison and opens the next epoch. Each
// endpoint acknowledges epochs individually, so a rank that has not yet
// observed a cleared abort keeps failing fast (wrapping ErrStaleEpoch and
// the abort that ended its epoch) instead of silently joining traffic it
// never agreed to.
type World struct {
	size    int
	queue   [][]chan message // queue[src][dst]
	timeout time.Duration
	free    []freeList // free[src]: delivered payload buffers, for src's next sends

	mu    sync.Mutex // serializes abort and Reset, the only writers of state
	state atomic.Pointer[state]
}

// state is the world's abort condition as one immutable snapshot: abort and
// Reset publish a new one under World.mu, every operation reads the current
// one without a lock.
type state struct {
	poison     *transport.AbortError // current uncleared abort, nil when clear
	lastPoison *transport.AbortError // most recent abort, kept for late observers
	epoch      int                   // number of cleared poison generations
	abortCh    chan struct{}         // closed by the current poison; remade on clear
	dead       []int                 // sorted world ranks agreed dead
}

// maxRetained caps the payload bytes one rank's free list holds; buffers
// handed back beyond it are left to the garbage collector.
const maxRetained = 16 << 20

// freeList recycles one sender's payload buffers. The receiver hands a
// buffer back once it has copied the payload out; messages that are stashed
// or discarded as debris are simply never handed back.
type freeList struct {
	mu    sync.Mutex
	bufs  [][]byte
	bytes int // sum of cap over bufs, at most maxRetained
}

// stage copies p into a buffer owned by the message about to be sent.
func (f *freeList) stage(p []byte) []byte {
	var b []byte
	f.mu.Lock()
	if k := len(f.bufs) - 1; k >= 0 {
		b, f.bufs[k], f.bufs = f.bufs[k], nil, f.bufs[:k]
		f.bytes -= cap(b)
	}
	f.mu.Unlock()
	if cap(b) < len(p) {
		// A b too small is dropped, so the list converges on buffers that
		// fit the sender's largest message.
		b = make([]byte, len(p))
	}
	b = b[:len(p)]
	copy(b, p)
	return b
}

func (f *freeList) put(b []byte) {
	f.mu.Lock()
	if cap(b) > 0 && f.bytes+cap(b) <= maxRetained {
		f.bufs = append(f.bufs, b)
		f.bytes += cap(b)
	}
	f.mu.Unlock()
}

// abort poisons the world: every pending and future operation on any rank
// fails with an error wrapping both transport.ErrAborted and
// transport.ErrPeerFailed. Concurrent aborts merge their failed sets into
// the first; an abort whose failed set carries no news relative to the
// already-agreed dead set is suppressed (it is a late duplicate from a
// failure the survivors have already recovered from).
func (w *World) abort(origin int, reason error) {
	ae := transport.ToAbortError(origin, reason)
	w.mu.Lock()
	defer w.mu.Unlock()
	st := *w.state.Load()
	switch {
	case st.poison != nil:
		merged := *st.poison
		merged.Failed = transport.MergeFailed(merged.Failed, ae.Failed)
		st.poison, st.lastPoison = &merged, &merged
	case st.epoch > 0 && transport.SubsetOf(ae.Failed, st.dead):
		return
	default:
		st.poison, st.lastPoison = ae, ae
		close(st.abortCh)
	}
	w.state.Store(&st)
}

// staleErr builds the error for an endpoint whose acknowledged epoch
// predates the world's.
func (st *state) staleErr(seen int) error {
	return fmt.Errorf("%w: endpoint at epoch %d, world at %d: %w", transport.ErrStaleEpoch, seen, st.epoch, st.lastPoison)
}

// Option configures a World.
type Option func(*config)

type config struct {
	buffer  int
	timeout time.Duration
}

// WithBuffer sets the per-pair queue depth (default 64; values below one
// are ignored). The depth only bounds how many unreceived messages a pair
// holds before Send blocks: SendRecv is ring-safe at any depth.
func WithBuffer(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.buffer = n
		}
	}
}

// WithRecvTimeout makes receives fail after d instead of blocking forever.
// Tests use it to convert collective deadlocks into errors.
func WithRecvTimeout(d time.Duration) Option {
	return func(c *config) { c.timeout = d }
}

// NewWorld creates a world of size ranks. A non-positive size is an
// error: library callers and cmd tools get a diagnosable failure rather
// than a crash.
func NewWorld(size int, opts ...Option) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("chantransport: world size %d, need at least 1", size)
	}
	cfg := config{buffer: 64}
	for _, o := range opts {
		o(&cfg)
	}
	w := &World{size: size, timeout: cfg.timeout, free: make([]freeList, size)}
	w.state.Store(&state{abortCh: make(chan struct{})})
	w.queue = make([][]chan message, size)
	for s := range w.queue {
		w.queue[s] = make([]chan message, size)
		for d := range w.queue[s] {
			w.queue[s][d] = make(chan message, cfg.buffer)
		}
	}
	return w, nil
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Endpoint returns the endpoint for the given rank, or an error when the
// rank lies outside the world. Each rank's endpoint must be used by a
// single goroutine at a time, matching the SPMD model.
func (w *World) Endpoint(rank int) (*Endpoint, error) {
	if rank < 0 || rank >= w.size {
		return nil, fmt.Errorf("%w: rank %d outside world of %d", transport.ErrRank, rank, w.size)
	}
	return &Endpoint{world: w, rank: rank}, nil
}

// Run spawns one goroutine per rank executing fn and waits for all of them.
// It returns the first non-nil error by rank order, which is how SPMD test
// drivers surface a failure on any node.
func (w *World) Run(fn func(ep *Endpoint) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// A panic in one rank's program must surface as that rank's
			// error, not kill the host process and every other rank with it.
			defer func() {
				if v := recover(); v != nil {
					errs[r] = fmt.Errorf("panic: %v", v)
				}
			}()
			ep, err := w.Endpoint(r)
			if err != nil {
				errs[r] = err
				return
			}
			errs[r] = fn(ep)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// Endpoint is one rank's handle on a World. It implements transport.Endpoint.
type Endpoint struct {
	world  *World
	rank   int
	closed atomic.Bool
	seen   atomic.Int64 // last epoch this endpoint acknowledged via Reset

	// timer is the idle deadline timer — stopped, its channel empty — built
	// when an operation first has to block and reused from then on. The
	// operation that blocks takes it (leaving nil) and puts it back when it
	// returns; one that finds nil, because two Sub communicators' progress
	// goroutines receive at once, builds another.
	timer atomic.Pointer[time.Timer]

	// The channel per pair is a strict FIFO, so a receive that pops a
	// message of the other class (recovery traffic during a collective, or
	// a faster peer's next-epoch collective during recovery) must set it
	// aside rather than destroy it: a lost agreement message strands the
	// whole protocol in mutual timeouts, and a lost first message of the
	// new epoch gets a live peer blamed. The stashes hold such messages,
	// keyed by sender, until a receive of the right class drains them.
	stashMu   sync.Mutex
	stashRec  map[int][]message // live recovery messages popped by ordinary receives
	stashNorm map[int][]message // next-epoch messages popped by recovery receives
}

var (
	_ transport.Endpoint  = (*Endpoint)(nil)
	_ transport.Aborter   = (*Endpoint)(nil)
	_ transport.Recoverer = (*Endpoint)(nil)
)

// Rank returns this endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the world size.
func (e *Endpoint) Size() int { return e.world.size }

// Abort poisons the whole world with this rank as origin: every pending
// and future operation on every rank returns an error wrapping
// transport.ErrAborted promptly. Within one process the broadcast is
// immediate — the shared abort channel is the dedicated control path. If
// reason already carries a transport.AbortError its origin and failed set
// are preserved, so dying ranks can name themselves and restart-aborts
// raised during agreement carry the merged suspect set.
func (e *Endpoint) Abort(reason error) { e.world.abort(e.rank, reason) }

// AbortErr returns the world's poisoning error, the stale-epoch error if
// the world recovered past this endpoint, or nil.
func (e *Endpoint) AbortErr() error { return e.abortErr(e.world.state.Load()) }

func (e *Endpoint) abortErr(st *state) error {
	if st.poison != nil {
		return st.poison
	}
	if seen := int(e.seen.Load()); seen < st.epoch {
		return st.staleErr(seen)
	}
	return nil
}

// Reset acknowledges the current poison generation, marks the given world
// ranks dead, and moves this endpoint into the world's next epoch. The
// first survivor to Reset clears the shared poison and bumps the world
// epoch; the others catch up when they call Reset themselves. With the
// world healthy, Reset only records the failed set.
func (e *Endpoint) Reset(failed []int) {
	w := e.world
	w.mu.Lock()
	st := *w.state.Load()
	st.dead = transport.MergeFailed(st.dead, failed)
	if st.poison != nil {
		st.poison = nil
		st.epoch++
		st.abortCh = make(chan struct{})
	}
	// Acknowledge before publishing, so no concurrent operation on this
	// endpoint sees the new epoch with the old acknowledgement.
	e.seen.Store(int64(st.epoch))
	w.state.Store(&st)
	w.mu.Unlock()
	// Any recovery message still stashed belongs to a round at or before
	// the one this Reset closes: stale by nonce, never to be drained by a
	// later round's receives (which only target the current coordinator).
	e.stashMu.Lock()
	e.stashRec = nil
	e.stashMu.Unlock()
}

// stashAdd sets aside a message popped by a receive of the other class.
func (e *Endpoint) stashAdd(from int, m message, recovery bool) {
	e.stashMu.Lock()
	defer e.stashMu.Unlock()
	if recovery {
		if e.stashRec == nil {
			e.stashRec = make(map[int][]message)
		}
		e.stashRec[from] = append(e.stashRec[from], m)
		return
	}
	if e.stashNorm == nil {
		e.stashNorm = make(map[int][]message)
	}
	e.stashNorm[from] = append(e.stashNorm[from], m)
}

// unstash returns the next stashed message from the given sender usable by
// a receive of the given class, discarding stashed debris it scans past:
// recovery receives drop stashed recovery messages of other phases (stale
// attempts), ordinary receives drop stashed messages from before their
// epoch. Messages from a future epoch stay stashed; the gate reports the
// staleness before they could matter.
func (e *Endpoint) unstash(from int, rec bool, tag transport.Tag, epoch int) (message, bool) {
	e.stashMu.Lock()
	defer e.stashMu.Unlock()
	stash := e.stashNorm
	if rec {
		stash = e.stashRec
	}
	if stash == nil {
		return message{}, false
	}
	q := stash[from]
	for len(q) > 0 {
		m := q[0]
		if !rec && m.epoch > epoch {
			break // future epoch: unreachable until Reset catches us up
		}
		q = q[1:]
		if rec && m.tag != tag {
			continue // stale attempt debris in the recovery tag space
		}
		if !rec && m.epoch < epoch {
			continue // remnant of an epoch this endpoint has moved past
		}
		stash[from] = q
		return m, true
	}
	stash[from] = q
	return message{}, false
}

// Failed returns the sorted set of world ranks agreed dead.
func (e *Endpoint) Failed() []int { return append([]int(nil), e.world.state.Load().dead...) }

// Epoch returns the world's current epoch.
func (e *Endpoint) Epoch() int { return e.world.state.Load().epoch }

// gate checks whether an operation with the given peer may proceed under
// the snapshot st. Recovery-tagged operations run through the poison — the
// agreement protocol is exactly the traffic that must flow while the world
// is down — so for them the poison and staleness checks are skipped (and
// transfer arms no abort wakeup).
func (e *Endpoint) gate(st *state, peer int, rec bool) error {
	if !rec {
		if err := e.abortErr(st); err != nil {
			return err
		}
	}
	if _, dead := slices.BinarySearch(st.dead, peer); dead {
		return &transport.PeerError{Peer: peer,
			Err: fmt.Errorf("%w: rank %d is dead (rank %d)", transport.ErrPeerFailed, peer, e.rank)}
	}
	return nil
}

// match is the one classification every receive applies to the next message
// from a peer, popped from the pair's queue or its stash: take it, skip it,
// or fail. Messages stamped with an epoch older than the endpoint's are
// remnants of a collective cut down by an abort and are skipped. A message
// of the other class — recovery traffic met by an ordinary receive, or a
// faster peer's next-epoch collective met by a recovery receive — is stashed
// for the receive that can use it, never destroyed (see Endpoint).
func (e *Endpoint) match(from int, m message, rec bool, tag transport.Tag, epoch int) (take bool, err error) {
	switch mrec := m.tag.IsRecovery(); {
	case rec && !mrec:
		if m.epoch > epoch {
			// A peer that already committed the new epoch started its next
			// collective; hold the message for this rank's own post-Reset
			// receive.
			e.stashAdd(from, m, false)
		}
		return false, nil // else debris of a collective cut down by the abort
	case rec:
		return m.tag == tag, nil // other tags: an earlier recovery attempt's stale message
	case mrec && m.epoch < epoch:
		return false, nil // debris of a recovery round already committed
	case mrec:
		// A live agreement message: its sender is recovering and will never
		// resend it, so destroying it would strand the protocol in mutual
		// timeouts. Stash it for this rank's own Agree and fail the
		// collective receive; the mismatch poisons the world blaming nobody,
		// pushing this rank into the same recovery.
		e.stashAdd(from, m, true)
		return false, fmt.Errorf("%w: rank %d expected tag %#x from %d, got recovery message %#x",
			transport.ErrTagMismatch, e.rank, tag, from, m.tag)
	case m.epoch < epoch:
		return false, nil // stale traffic from before the last recovery
	case m.epoch > epoch:
		// The sender is an epoch ahead: this endpoint is stale and the gate
		// says so on the next pass; the message may still be valid after
		// this rank's own Reset.
		e.stashAdd(from, m, false)
		return false, nil
	case m.tag != tag:
		return false, fmt.Errorf("%w: rank %d expected tag %#x from %d, got %#x",
			transport.ErrTagMismatch, e.rank, tag, from, m.tag)
	}
	return true, nil
}

// armTimer takes the endpoint's deadline timer, or builds one, and starts it.
func (e *Endpoint) armTimer() *time.Timer {
	t := e.timer.Swap(nil)
	if t == nil {
		return time.NewTimer(e.world.timeout)
	}
	t.Reset(e.world.timeout)
	return t
}

// releaseTimer puts an armed timer back stopped and drained, which is what
// Reset needs of timers before go 1.23; fired says t.C was received from.
func (e *Endpoint) releaseTimer(t *time.Timer, fired bool) {
	if !t.Stop() && !fired {
		<-t.C
	}
	e.timer.Store(t)
}

// half is one direction of a transfer: the peer, the tag, and the payload
// to send or the buffer to receive into.
type half struct {
	peer int
	tag  transport.Tag
	p    []byte
}

// transfer is the one loop behind Send, Recv and SendRecv. It offers the
// outgoing message and takes the incoming one in whichever order they
// become ready, on the caller's goroutine; the abort wakeup and the deadline
// are shared by both halves. A receive error ends the transfer at once and
// wins over a send error, so the outgoing message may then never have been
// sent; a failed send half still lets the receive finish.
func (e *Endpoint) transfer(send, recv *half) (int, error) {
	if e.closed.Load() {
		return 0, transport.ErrClosed
	}
	w := e.world
	var sq, rq chan message // nil once the half is done: a nil channel never selects
	var out message
	var srec, rrec bool
	if recv != nil {
		if err := transport.CheckPeer(e.rank, w.size, recv.peer); err != nil {
			return 0, err
		}
		rq, rrec = w.queue[recv.peer][e.rank], recv.tag.IsRecovery()
	}
	if send != nil {
		if err := transport.CheckPeer(e.rank, w.size, send.peer); err != nil {
			return 0, err
		}
		sq, srec = w.queue[e.rank][send.peer], send.tag.IsRecovery()
		out = message{tag: send.tag, data: w.free[e.rank].stage(send.p)}
	}
	var timer *time.Timer // this call's deadline, armed only once it has to block
	fired := false
	defer func() {
		if timer != nil {
			e.releaseTimer(timer, fired)
		}
	}()
	var n int
	var serr error
	for sq != nil || rq != nil {
		st := w.state.Load()
		epoch := int(e.seen.Load())
		var abortCh chan struct{} // nil (never ready) for recovery traffic
		if sq != nil {
			if serr = e.gate(st, send.peer, srec); serr != nil {
				sq = nil
				continue
			}
			out.epoch = epoch
			if !srec {
				abortCh = st.abortCh
			}
		}
		var m message
		got := false
		if rq != nil {
			if err := e.gate(st, recv.peer, rrec); err != nil {
				return 0, err
			}
			if !rrec {
				abortCh = st.abortCh
			}
			m, got = e.unstash(recv.peer, rrec, recv.tag, epoch)
		}
		if !got {
			// Whatever is ready goes first and costs no deadline.
			select {
			case sq <- out:
				sq = nil
				continue
			default:
			}
			select {
			case m = <-rq:
				got = true
			default:
			}
		}
		if !got {
			// A receive is bounded, and so is a recovery send: it has no abort
			// wakeup (it must run through the poison), so a full queue to a
			// rank that stopped draining — typically because it is dead —
			// would block it forever.
			var timeoutCh <-chan time.Time
			if w.timeout > 0 && (rq != nil || srec) {
				if timer == nil {
					timer = e.armTimer()
				}
				timeoutCh = timer.C
			}
			select {
			case sq <- out:
				sq = nil
				continue
			case m = <-rq:
			case <-abortCh:
				continue // poisoned, or recovered past us: the gate has the verdict
			case <-timeoutCh:
				fired = true
				if rq == nil {
					return 0, &transport.PeerError{Peer: send.peer,
						Err: fmt.Errorf("chantransport: rank %d: send to %d tag %#x: %w after %v (peer not draining)",
							e.rank, send.peer, send.tag, transport.ErrTimeout, w.timeout)}
				}
				// If the poison landed in the same instant the timer fired,
				// the select may pick the timer; the poison explains the
				// silence, so report it rather than blame a live peer for an
				// abort it did not cause.
				if p := w.state.Load().poison; p != nil && !rrec {
					return 0, p
				}
				return 0, &transport.PeerError{Peer: recv.peer,
					Err: fmt.Errorf("chantransport: rank %d: receive from %d tag %#x: %w after %v (likely collective deadlock)",
						e.rank, recv.peer, recv.tag, transport.ErrTimeout, w.timeout)}
			}
		}
		take, err := e.match(recv.peer, m, rrec, recv.tag, epoch)
		if err != nil {
			return 0, err
		}
		if !take {
			continue
		}
		if len(m.data) > len(recv.p) {
			return 0, fmt.Errorf("%w: rank %d from %d: message %d bytes, buffer %d",
				transport.ErrTruncate, e.rank, recv.peer, len(m.data), len(recv.p))
		}
		n = copy(recv.p, m.data)
		w.free[recv.peer].put(m.data)
		rq = nil
	}
	return n, serr
}

// Send copies p and enqueues it for rank to. It blocks only while the
// pair's queue is full.
func (e *Endpoint) Send(to int, tag transport.Tag, p []byte) error {
	_, err := e.transfer(&half{to, tag, p}, nil)
	return err
}

// Recv dequeues the next message from rank from, verifies its tag and
// length, and copies it into p (see match for what it skips and stashes).
func (e *Endpoint) Recv(from int, tag transport.Tag, p []byte) (int, error) {
	return e.transfer(nil, &half{from, tag, p})
}

// SendRecv sends to one peer and receives from another in one loop on the
// caller's goroutine (see transfer), so a full ring of simultaneous
// exchanges, a rank exchanging with itself included, cannot deadlock at any
// buffer depth. If both halves fail the receive's error is returned; on a
// receive error the outgoing message may not have been sent.
func (e *Endpoint) SendRecv(to int, stag transport.Tag, sp []byte, from int, rtag transport.Tag, rp []byte) (int, error) {
	return e.transfer(&half{to, stag, sp}, &half{from, rtag, rp})
}

// Close marks the endpoint closed. Messages already queued to other ranks
// remain deliverable.
func (e *Endpoint) Close() error {
	e.closed.Store(true)
	return nil
}
