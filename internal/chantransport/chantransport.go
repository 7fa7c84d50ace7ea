// Package chantransport implements the transport.Endpoint interface over Go
// channels: p ranks inside one process, one buffered channel per ordered
// (sender, receiver) pair. It is the reference functional substrate — fast,
// deterministic in matching (FIFO per pair), and with optional receive
// timeouts so that a deadlocked collective fails a test instead of hanging
// it.
package chantransport

import (
	"fmt"
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

	mu         sync.Mutex
	poison     *transport.AbortError // current uncleared abort, nil when clear
	lastPoison *transport.AbortError // most recent abort, kept for late observers
	epoch      int                   // number of cleared poison generations
	abortCh    chan struct{}         // closed by the current poison; remade on clear
	dead       []int                 // sorted world ranks agreed dead
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
	if w.poison != nil {
		w.poison.Failed = transport.MergeFailed(w.poison.Failed, ae.Failed)
		return
	}
	if w.epoch > 0 && transport.SubsetOf(ae.Failed, w.dead) {
		return
	}
	w.poison = ae
	w.lastPoison = ae
	close(w.abortCh)
}

// aborted returns the current poisoning error, or nil.
func (w *World) aborted() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.poison != nil {
		return w.poison
	}
	return nil
}

// staleErr builds the error for an endpoint whose acknowledged epoch
// predates the world's.
func (w *World) staleErr(seen int) error {
	return fmt.Errorf("%w: endpoint at epoch %d, world at %d: %w", transport.ErrStaleEpoch, seen, w.epoch, w.lastPoison)
}

// Option configures a World.
type Option func(*config)

type config struct {
	buffer  int
	timeout time.Duration
}

// WithBuffer sets the per-pair channel buffer depth (default 64). A depth
// of at least one is required so that a full ring of SendRecv calls cannot
// deadlock.
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
	w := &World{size: size, timeout: cfg.timeout, abortCh: make(chan struct{})}
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
func (e *Endpoint) AbortErr() error {
	w := e.world
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.poison != nil {
		return w.poison
	}
	if seen := int(e.seen.Load()); seen < w.epoch {
		return w.staleErr(seen)
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
	w.dead = transport.MergeFailed(w.dead, failed)
	if w.poison != nil {
		w.poison = nil
		w.epoch++
		w.abortCh = make(chan struct{})
	}
	e.seen.Store(int64(w.epoch))
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
func (e *Endpoint) Failed() []int {
	w := e.world
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]int(nil), w.dead...)
}

// Epoch returns the world's current epoch.
func (e *Endpoint) Epoch() int {
	w := e.world
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// gate checks whether an operation with the given peer may proceed. On
// success it returns the current abort channel (for wakeup) and the
// epoch stamp outgoing messages must carry. Recovery-tagged operations
// run through the poison — the agreement protocol is exactly the traffic
// that must flow while the world is down — so for them the poison and
// staleness checks are skipped and no abort wakeup is armed (a nil
// channel blocks in select).
func (e *Endpoint) gate(peer int, rec bool) (ch chan struct{}, epoch int, err error) {
	w := e.world
	w.mu.Lock()
	defer w.mu.Unlock()
	if !rec {
		if w.poison != nil {
			return nil, 0, w.poison
		}
		if seen := int(e.seen.Load()); seen < w.epoch {
			return nil, 0, w.staleErr(seen)
		}
	}
	if i := searchInts(w.dead, peer); i >= 0 {
		return nil, 0, &transport.PeerError{Peer: peer,
			Err: fmt.Errorf("%w: rank %d is dead (rank %d)", transport.ErrPeerFailed, peer, e.rank)}
	}
	if rec {
		return nil, int(e.seen.Load()), nil
	}
	return w.abortCh, int(e.seen.Load()), nil
}

func searchInts(sorted []int, x int) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(sorted) && sorted[lo] == x {
		return lo
	}
	return -1
}

// Send copies p and enqueues it for rank to. It blocks only if the pair's
// channel buffer is full.
func (e *Endpoint) Send(to int, tag transport.Tag, p []byte) error {
	if e.closed.Load() {
		return transport.ErrClosed
	}
	if err := transport.CheckPeer(e.rank, e.world.size, to); err != nil {
		return err
	}
	data := make([]byte, len(p))
	copy(data, p)
	rec := tag.IsRecovery()
	var timeoutCh <-chan time.Time
	if rec && e.world.timeout > 0 {
		// A recovery send has no abort wakeup (it must run through the
		// poison), so a full queue to a rank that stopped draining —
		// typically because it is dead — would block forever. Bound it
		// like a receive and blame the peer.
		timer := time.NewTimer(e.world.timeout)
		defer timer.Stop()
		timeoutCh = timer.C
	}
	for {
		ch, epoch, err := e.gate(to, rec)
		if err != nil {
			return err
		}
		select {
		case e.world.queue[e.rank][to] <- message{tag: tag, data: data, epoch: epoch}:
			return nil
		case <-ch:
			// Poisoned (or recovered past us) while blocked: loop to
			// pick up the gate's verdict.
		case <-timeoutCh:
			return &transport.PeerError{Peer: to,
				Err: fmt.Errorf("chantransport: rank %d: send to %d tag %#x: %w after %v (peer not draining)",
					e.rank, to, tag, transport.ErrTimeout, e.world.timeout)}
		}
	}
}

// Recv dequeues the next message from rank from, verifies its tag and
// length, and copies it into p. Messages stamped with an epoch older than
// the endpoint's are remnants of a collective cut down by an abort and are
// silently discarded. A message of the other class — recovery traffic
// popped by an ordinary receive, or a faster peer's next-epoch collective
// popped by a recovery receive — is stashed for the receive that can use
// it, never destroyed (see Endpoint).
func (e *Endpoint) Recv(from int, tag transport.Tag, p []byte) (int, error) {
	if e.closed.Load() {
		return 0, transport.ErrClosed
	}
	if err := transport.CheckPeer(e.rank, e.world.size, from); err != nil {
		return 0, err
	}
	var timer *time.Timer
	var timeoutCh <-chan time.Time
	if e.world.timeout > 0 {
		timer = time.NewTimer(e.world.timeout)
		defer timer.Stop()
		timeoutCh = timer.C
	}
	ch := e.world.queue[from][e.rank]
	rec := tag.IsRecovery()
	for {
		abortCh, epoch, err := e.gate(from, rec)
		if err != nil {
			return 0, err
		}
		m, ok := e.unstash(from, rec, tag, epoch)
		if !ok {
			select {
			case m = <-ch:
			case <-abortCh:
				continue
			case <-timeoutCh:
				if !rec {
					// If the poison landed in the same instant the timer
					// fired, the select may pick the timer; the poison
					// explains the silence, so report it rather than blame
					// a live peer for an abort it did not cause.
					if err := e.world.aborted(); err != nil {
						return 0, err
					}
				}
				return 0, &transport.PeerError{Peer: from,
					Err: fmt.Errorf("chantransport: rank %d: receive from %d tag %#x: %w after %v (likely collective deadlock)",
						e.rank, from, tag, transport.ErrTimeout, e.world.timeout)}
			}
		}
		if rec {
			if !m.tag.IsRecovery() {
				if m.epoch > epoch {
					// A peer that already committed the new epoch started
					// its next collective; hold the message for this rank's
					// own post-Reset receive.
					e.stashAdd(from, m, false)
				}
				continue // debris of a collective cut down by the abort
			}
			if m.tag != tag {
				continue // stale message of an earlier recovery attempt
			}
		} else {
			if m.tag.IsRecovery() {
				if m.epoch < epoch {
					continue // debris of a recovery round already committed
				}
				// A live agreement message: its sender is recovering and
				// will never resend it, so destroying it would strand the
				// protocol in mutual timeouts. Stash it for this rank's own
				// Agree and fail the collective receive; the mismatch
				// poisons the world blaming nobody, pushing this rank into
				// the same recovery.
				e.stashAdd(from, m, true)
				return 0, fmt.Errorf("%w: rank %d expected tag %#x from %d, got recovery message %#x",
					transport.ErrTagMismatch, e.rank, tag, from, m.tag)
			}
			if m.epoch < epoch {
				continue // stale traffic from before the last recovery
			}
			if m.epoch > epoch {
				// The sender is an epoch ahead: this endpoint is stale and
				// the gate says so on the next pass; the message may still
				// be valid after this rank's own Reset.
				e.stashAdd(from, m, false)
				continue
			}
			if m.tag != tag {
				return 0, fmt.Errorf("%w: rank %d expected tag %#x from %d, got %#x",
					transport.ErrTagMismatch, e.rank, tag, from, m.tag)
			}
		}
		if len(m.data) > len(p) {
			return 0, fmt.Errorf("%w: rank %d from %d: message %d bytes, buffer %d",
				transport.ErrTruncate, e.rank, from, len(m.data), len(p))
		}
		copy(p, m.data)
		return len(m.data), nil
	}
}

// SendRecv runs the send in a separate goroutine while receiving inline, so
// a full ring of simultaneous exchanges cannot deadlock regardless of
// buffer depth.
func (e *Endpoint) SendRecv(to int, stag transport.Tag, sp []byte, from int, rtag transport.Tag, rp []byte) (int, error) {
	sendErr := make(chan error, 1)
	go func() { sendErr <- e.Send(to, stag, sp) }()
	n, rerr := e.Recv(from, rtag, rp)
	serr := <-sendErr
	if rerr != nil {
		return n, rerr
	}
	return n, serr
}

// Close marks the endpoint closed. Messages already queued to other ranks
// remain deliverable.
func (e *Endpoint) Close() error {
	e.closed.Store(true)
	return nil
}
