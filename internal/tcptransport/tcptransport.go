// Package tcptransport implements the transport.Endpoint interface over
// TCP sockets: a full mesh of connections among p ranks, usable across
// processes and hosts. It is the substrate a real deployment of the
// library would use in place of the paper's NX point-to-point calls —
// §11's observation that porting InterCom means swapping exactly this
// layer.
//
// The transport is self-healing: every frame a rank sends is retained
// until the peer acknowledges it, so when a connection drops the link
// enters an outage — the dialer side (the higher rank of the pair, as
// during bring-up) redials with capped exponential backoff and jitter
// while the acceptor side keeps its listener open — and a reconnect
// handshake exchanges cumulative delivery counts so exactly the lost
// frames are retransmitted, preserving FIFO order with no duplicates. An
// outage longer than the heal window is fatal: the link fails with an
// error wrapping transport.ErrPeerFailed. Transient socket errors are
// therefore invisible to the collective layer; only real peer death
// surfaces.
//
// The transport is also recoverable: an abort (typed, carrying the
// origin's failed-rank set) poisons the endpoint until Reset clears it
// and opens the next epoch. Data frames are stamped with the sender's
// epoch, so traffic from a collective cut down mid-flight is discarded by
// receivers that have moved on instead of corrupting the new epoch. A
// killed-and-restarted rank re-enters the world with Rejoin (the same
// handshake as bring-up, tolerant of dead peers); survivors accept it
// back with Readmit, which replaces the dead link with a fresh one.
//
// Wire protocol: a dialer opens with its 4-byte rank and 8-byte receive
// count; the acceptor replies with its own receive count. Frames follow,
// each led by a type byte: data (4-byte tag, 4-byte epoch, 4-byte length,
// payload), ack (8-byte cumulative receive count), abort (4-byte origin,
// 4-byte failed-set size, the failed ranks, 4-byte length, reason text —
// the out-of-band failure broadcast), and bye (graceful close). Messages
// between a pair of ranks are FIFO.
package tcptransport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

type message struct {
	tag   transport.Tag
	data  []byte
	epoch uint32
}

// Frame type bytes.
const (
	frameData  = 0x00
	frameAck   = 0x01
	frameAbort = 0x02
	frameBye   = 0x03
)

const (
	queueDepth = 64 // inbound messages buffered per link before spill

	// Receivers acknowledge every ackEvery data frames or ackBytes
	// payload bytes, whichever comes first; senders stop buffering
	// unacknowledged frames at maxUnackedBytes bytes or maxUnackedFrames
	// frames. The ack thresholds are far below the buffering caps, so a
	// healthy link never stalls waiting for an ack.
	ackEvery         = 16
	ackBytes         = 1 << 20
	maxUnackedBytes  = 32 << 20
	maxUnackedFrames = 1 << 15

	handshakeTimeout   = 2 * time.Second
	dialAttemptTimeout = time.Second
)

// linkQueue is an unbounded inbound message buffer. Delivery must never
// block the reader goroutine: a reader parked on a bounded channel while
// holding the link lock would wedge the whole link — fatal during
// recovery, when stale pre-abort traffic sits undrained until the next
// epoch's first receive discards it.
type linkQueue struct {
	mu    sync.Mutex
	items []message
	head  int           // index of the next message to pop
	sig   chan struct{} // 1-buffered wakeup for a blocked consumer
}

// linkQueueSpill is the capacity above which a drained queue releases its
// backing array: an abort can spill a whole cut-down collective into the
// queue, and that burst should not stay pinned once the next epoch has
// discarded it. Below the threshold the array is reused, so the
// steady-state empty↔one oscillation of a healthy link allocates nothing.
const linkQueueSpill = 64

func newLinkQueue() *linkQueue {
	return &linkQueue{sig: make(chan struct{}, 1)}
}

func (q *linkQueue) push(m message) {
	q.mu.Lock()
	q.items = append(q.items, m)
	q.mu.Unlock()
	select {
	case q.sig <- struct{}{}:
	default:
	}
}

func (q *linkQueue) pop() (message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.items) {
		return message{}, false
	}
	m := q.items[q.head]
	q.items[q.head] = message{}
	q.head++
	if q.head == len(q.items) {
		q.head = 0
		if cap(q.items) > linkQueueSpill {
			q.items = nil
		} else {
			q.items = q.items[:0]
		}
	}
	return m, true
}

// Endpoint is one rank's node in a TCP world. Safe for one collective at
// a time, like every transport in this library; Send and Recv may run
// concurrently (SendRecv).
type Endpoint struct {
	rank, size int
	boot       uint64 // incarnation id; a restarted rank presents a new one
	cfg        config
	addrs      []string
	ln         net.Listener
	links      []atomic.Pointer[link] // indexed by peer rank; links[rank] empty
	loopback   *linkQueue             // self-messages
	done       chan struct{}
	closed     atomic.Bool
	closeOnce  sync.Once
	closeErr   error

	// Abort/recovery state. poisonErr is the current uncleared abort;
	// Reset clears it, bumps epoch, and remakes abortedCh so the next
	// poison generation has a fresh wakeup channel. dead holds the world
	// ranks agreed failed; lastPoison keeps the most recent abort for
	// diagnostics after a clear.
	recMu      sync.Mutex
	poisonErr  *transport.AbortError
	lastPoison *transport.AbortError
	abortedCh  chan struct{}
	epoch      int
	dead       []int

	reconnects atomic.Int64
}

// link is the state of one peer connection: the live conn (nil during an
// outage), the retransmit buffer of unacknowledged sent frames, and the
// cumulative receive count the reconnect handshake resynchronizes on.
// All fields are guarded by mu; cond wakes senders blocked on the
// buffering cap.
type link struct {
	e    *Endpoint
	peer int

	queue *linkQueue // inbound; never closed (down signals failure)

	mu   sync.Mutex
	cond *sync.Cond
	c    net.Conn
	gen  int // bumped on every conn change; stale readers/timers check it

	// Sender state: sent counts data frames handed to Send; unacked holds
	// the frames the peer has not yet acknowledged (retransmitted on
	// reconnect).
	sent         uint64
	unacked      [][]byte
	unackedBytes int

	// Receiver state: recvd counts data frames delivered in order;
	// sinceAck/sinceAckBytes drive periodic acknowledgements.
	recvd         uint64
	sinceAck      int
	sinceAckBytes int

	dialing   bool
	healTimer *time.Timer
	peerBoot  uint64 // peer incarnation the link established with; 0 = unknown
	failErr   error
	closed    bool
	down      chan struct{} // closed when the link fails or closes
	downed    bool
	est       bool
	estCh     chan struct{} // closed on first establishment
}

var (
	_ transport.Endpoint   = (*Endpoint)(nil)
	_ transport.Aborter    = (*Endpoint)(nil)
	_ transport.Recoverer  = (*Endpoint)(nil)
	_ transport.Readmitter = (*Endpoint)(nil)
)

func newLink(e *Endpoint, peer int) *link {
	l := &link{
		e: e, peer: peer,
		queue: newLinkQueue(),
		down:  make(chan struct{}),
		estCh: make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// link returns the current link to peer (links are replaced by Readmit,
// so access goes through an atomic pointer).
func (e *Endpoint) link(peer int) *link { return e.links[peer].Load() }

// Rank returns this endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the world size.
func (e *Endpoint) Size() int { return e.size }

// Reconnects reports how many times this endpoint has re-established a
// dropped connection (either side).
func (e *Endpoint) Reconnects() int64 { return e.reconnects.Load() }

// Abort broadcasts an out-of-band abort to every reachable peer (a
// dedicated frame type, outside the data stream's tag space) and poisons
// this endpoint: every pending and future operation fails promptly with
// an error wrapping transport.ErrAborted. If reason already carries a
// transport.AbortError its origin and failed set are preserved, so dying
// ranks name themselves and recovery restarts carry their suspect sets.
func (e *Endpoint) Abort(reason error) {
	ae := transport.ToAbortError(e.rank, reason)
	if !e.poison(ae) {
		return // merged into an existing poison, or a newsless duplicate
	}
	fr := abortFrame(ae)
	for peer := range e.links {
		if peer == e.rank {
			continue
		}
		l := e.link(peer)
		if l == nil {
			continue
		}
		l.mu.Lock()
		if l.c != nil {
			l.writeLocked(l.c, fr) // best effort: unreachable peers learn via their own timeouts
		}
		l.mu.Unlock()
	}
}

// AbortErr returns the endpoint's poisoning error, or nil.
func (e *Endpoint) AbortErr() error {
	e.recMu.Lock()
	defer e.recMu.Unlock()
	if e.poisonErr != nil {
		return e.poisonErr
	}
	return nil
}

// currentAbort returns the typed poison, or nil.
func (e *Endpoint) currentAbort() *transport.AbortError {
	e.recMu.Lock()
	defer e.recMu.Unlock()
	return e.poisonErr
}

// abortChan returns the channel the current (or next) poison generation
// closes; blocked operations select on it.
func (e *Endpoint) abortChan() chan struct{} {
	e.recMu.Lock()
	defer e.recMu.Unlock()
	return e.abortedCh
}

// curEpoch returns the endpoint's current epoch as the wire stamp.
func (e *Endpoint) curEpoch() uint32 {
	e.recMu.Lock()
	defer e.recMu.Unlock()
	return uint32(e.epoch)
}

// poison records the abort and wakes everything, reporting whether this
// call established a new poison. A poison already in place absorbs the
// newcomer's failed set; an abort naming only ranks already agreed dead
// is a late duplicate of a recovered failure and is suppressed.
// abortedCh is closed before any link lock is taken, so a reader blocked
// while holding a link lock wakes without poison needing that lock.
func (e *Endpoint) poison(ae *transport.AbortError) bool {
	e.recMu.Lock()
	if e.poisonErr != nil {
		// Callers already hold the current poison as their error value and
		// read it without this lock, so absorb into a copy.
		merged := *e.poisonErr
		merged.Failed = transport.MergeFailed(merged.Failed, ae.Failed)
		e.poisonErr, e.lastPoison = &merged, &merged
		e.recMu.Unlock()
		return false
	}
	if e.epoch > 0 && transport.SubsetOf(ae.Failed, e.dead) {
		e.recMu.Unlock()
		return false
	}
	e.poisonErr = ae
	e.lastPoison = ae
	close(e.abortedCh)
	e.recMu.Unlock()
	for peer := range e.links {
		if peer == e.rank {
			continue
		}
		l := e.link(peer)
		if l == nil {
			continue
		}
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	}
	return true
}

// Reset acknowledges the current poison, marks the given world ranks
// dead (their links fail fast and stop healing), and opens the next
// epoch: the poison is cleared, the abort channel is remade, and
// outgoing data frames are stamped with the new epoch. With the endpoint
// healthy, Reset only records the failed set.
func (e *Endpoint) Reset(failed []int) {
	e.recMu.Lock()
	e.dead = transport.MergeFailed(e.dead, failed)
	if e.poisonErr != nil {
		e.lastPoison = e.poisonErr
		e.poisonErr = nil
		e.epoch++
		e.abortedCh = make(chan struct{})
	}
	dead := append([]int(nil), e.dead...)
	e.recMu.Unlock()
	for _, r := range dead {
		if r == e.rank || r < 0 || r >= e.size {
			continue
		}
		l := e.link(r)
		if l == nil {
			continue
		}
		l.mu.Lock()
		l.failLocked(&transport.PeerError{Peer: r,
			Err: fmt.Errorf("tcptransport: rank %d: %w: rank %d agreed dead", e.rank, transport.ErrPeerFailed, r)})
		l.mu.Unlock()
	}
	// Wake senders blocked on the buffering cap so they re-evaluate.
	for peer := range e.links {
		if peer == e.rank {
			continue
		}
		if l := e.link(peer); l != nil {
			l.mu.Lock()
			l.cond.Broadcast()
			l.mu.Unlock()
		}
	}
}

// Failed returns the sorted set of world ranks agreed dead.
func (e *Endpoint) Failed() []int {
	e.recMu.Lock()
	defer e.recMu.Unlock()
	return append([]int(nil), e.dead...)
}

// Epoch returns the endpoint's current epoch.
func (e *Endpoint) Epoch() int {
	e.recMu.Lock()
	defer e.recMu.Unlock()
	return e.epoch
}

// AdoptEpoch fast-forwards a rejoined endpoint to the survivors' epoch
// and failed set (received in the readmission state sync): its outgoing
// frames then carry the epoch the survivors expect, and links to agreed-
// dead ranks fail fast instead of redialing forever.
func (e *Endpoint) AdoptEpoch(epoch int, failed []int) {
	e.recMu.Lock()
	if epoch > e.epoch {
		e.epoch = epoch
	}
	e.recMu.Unlock()
	var keep []int
	for _, r := range failed {
		if r != e.rank {
			keep = append(keep, r)
		}
	}
	e.Reset(keep)
}

// Readmit accepts a killed-and-restarted peer back into the world: the
// dead link is replaced with a fresh one (counts zeroed on both sides, so
// the bring-up handshake resynchronizes from nothing), the peer leaves
// the dead set, and — when this rank is the dialer of the pair — redial
// begins immediately. The peer's own side of the handshake is Rejoin.
// Sends to the readmitted peer buffer until the connection establishes.
func (e *Endpoint) Readmit(peer int) error {
	if peer < 0 || peer >= e.size || peer == e.rank {
		return fmt.Errorf("%w: cannot readmit rank %d (rank %d, world %d)", transport.ErrRank, peer, e.rank, e.size)
	}
	if e.closed.Load() {
		return transport.ErrClosed
	}
	e.recMu.Lock()
	kept := e.dead[:0]
	for _, r := range e.dead {
		if r != peer {
			kept = append(kept, r)
		}
	}
	e.dead = kept
	e.recMu.Unlock()
	old := e.link(peer)
	nl := newLink(e, peer)
	e.links[peer].Store(nl)
	if old != nil {
		old.mu.Lock()
		old.closed = true // stale dials, readers and timers stand down
		if old.c != nil {
			old.c.Close()
			old.c = nil
			old.gen++
		}
		if old.healTimer != nil {
			old.healTimer.Stop()
			old.healTimer = nil
		}
		old.downClose()
		old.cond.Broadcast()
		old.mu.Unlock()
	}
	if peer < e.rank {
		nl.mu.Lock()
		nl.dialing = true
		nl.mu.Unlock()
		go nl.redial()
	}
	return nil
}

// Send hands p to the link: the frame is buffered for retransmission and
// written to the live conn if one exists. During an outage Send succeeds
// into the buffer (healing is transparent); it blocks only at the
// buffering cap, and fails once the link is declared dead.
func (e *Endpoint) Send(to int, tag transport.Tag, p []byte) error {
	if err := transport.CheckPeer(e.rank, e.size, to); err != nil {
		return err
	}
	rec := tag.IsRecovery()
	if !rec {
		if err := e.AbortErr(); err != nil {
			return err
		}
	}
	if e.closed.Load() {
		return transport.ErrClosed
	}
	if to == e.rank {
		data := append([]byte(nil), p...)
		e.loopback.push(message{tag: tag, data: data, epoch: e.curEpoch()})
		return nil
	}
	fr := dataFrame(tag, e.curEpoch(), p)
	l := e.link(to)
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.failErr == nil && !l.closed && (rec || e.AbortErr() == nil) &&
		(l.unackedBytes >= maxUnackedBytes || len(l.unacked) >= maxUnackedFrames) {
		l.cond.Wait()
	}
	if !rec {
		if err := e.AbortErr(); err != nil {
			return err
		}
	}
	if l.failErr != nil {
		return l.failErr
	}
	if l.closed {
		return transport.ErrClosed
	}
	l.unacked = append(l.unacked, fr)
	l.unackedBytes += len(fr)
	l.sent++
	if l.c != nil {
		if err := l.writeLocked(l.c, fr); err != nil {
			// The frame stays buffered; the reconnect handshake decides
			// what actually needs retransmitting.
			l.breakLocked(l.c, err)
		}
	}
	return nil
}

// Recv reads the next message from rank from. Buffered messages drain
// even after the link fails; a receive with nothing buffered fails with
// the link's fatal error, the abort error, or transport.ErrTimeout after
// the configured receive timeout. Messages stamped with an epoch older
// than the endpoint's are remnants of a collective cut down by an abort
// and are silently discarded.
func (e *Endpoint) Recv(from int, tag transport.Tag, p []byte) (int, error) {
	if err := transport.CheckPeer(e.rank, e.size, from); err != nil {
		return 0, err
	}
	rec := tag.IsRecovery()
	if !rec {
		if err := e.AbortErr(); err != nil {
			return 0, err
		}
	}
	if e.closed.Load() {
		return 0, transport.ErrClosed
	}
	myEpoch := e.curEpoch()
	q := e.loopback
	down := e.done
	var l *link
	if from != e.rank {
		l = e.link(from)
		q = l.queue
		down = l.down
	}
	// The timeout timer is armed lazily, on the first pass that actually
	// has to block: the common case finds the message already delivered
	// and should not pay a timer allocation per receive.
	var timer *time.Timer
	var timeoutC <-chan time.Time
	for {
		if m, ok := q.pop(); ok {
			if rec {
				if m.tag != tag {
					continue // debris of an aborted collective, or a stale recovery attempt
				}
			} else if m.epoch < myEpoch {
				continue // stale traffic from before the last recovery
			}
			return deliver(e, from, tag, m, p)
		}
		if timer == nil && e.cfg.timeout > 0 {
			timer = time.NewTimer(e.cfg.timeout)
			defer timer.Stop()
			timeoutC = timer.C
		}
		// Recovery receives run through the poison, so they arm no abort
		// wakeup (a nil channel blocks in select).
		var ach chan struct{}
		if !rec {
			ach = e.abortChan()
		}
		select {
		case <-q.sig:
		case <-down:
			// Drain anything delivered before the link went down.
			for {
				m, ok := q.pop()
				if !ok {
					return 0, e.downErr(from)
				}
				if rec {
					if m.tag != tag {
						continue
					}
				} else if m.epoch < myEpoch {
					continue
				}
				return deliver(e, from, tag, m, p)
			}
		case <-ach:
			if err := e.AbortErr(); err != nil {
				return 0, err
			}
		case <-timeoutC:
			return 0, &transport.PeerError{Peer: from,
				Err: fmt.Errorf("tcptransport: rank %d: receive from %d: %w after %v", e.rank, from, transport.ErrTimeout, e.cfg.timeout)}
		}
	}
}

// deliver validates a matched message's tag and length and copies it out.
func deliver(e *Endpoint, from int, tag transport.Tag, m message, p []byte) (int, error) {
	if m.tag != tag {
		return 0, fmt.Errorf("%w: rank %d expected tag %#x from %d, got %#x",
			transport.ErrTagMismatch, e.rank, uint32(tag), from, uint32(m.tag))
	}
	if len(m.data) > len(p) {
		return 0, fmt.Errorf("%w: rank %d from %d: message %d bytes, buffer %d",
			transport.ErrTruncate, e.rank, from, len(m.data), len(p))
	}
	copy(p, m.data)
	return len(m.data), nil
}

// downErr explains a failed source: the link's fatal error, or a plain
// closed-connection error.
func (e *Endpoint) downErr(from int) error {
	if from == e.rank {
		return transport.ErrClosed
	}
	l := e.link(from)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failErr != nil {
		return l.failErr
	}
	return &transport.PeerError{Peer: from,
		Err: fmt.Errorf("tcptransport: rank %d: connection from %d closed: %w", e.rank, from, transport.ErrPeerFailed)}
}

// SendRecv sends and receives concurrently.
func (e *Endpoint) SendRecv(to int, stag transport.Tag, sp []byte, from int, rtag transport.Tag, rp []byte) (int, error) {
	errc := make(chan error, 1)
	go func() { errc <- e.Send(to, stag, sp) }()
	n, rerr := e.Recv(from, rtag, rp)
	serr := <-errc
	if rerr != nil {
		return n, rerr
	}
	return n, serr
}

// Close shuts the endpoint down gracefully: a bye frame tells each live
// peer the closure is deliberate (so they fail fast with
// transport.ErrClosed instead of attempting to heal), then every
// connection and the listener are closed. Peers' pending receives fail.
func (e *Endpoint) Close() error {
	e.shutdown(true)
	return e.closeErr
}

// Kill shuts the endpoint down abruptly — no bye frames, connections and
// listener just die — simulating a fail-stopped process for fault tests.
// Peers see an outage, heal-retry, and declare the rank failed after the
// heal window.
func (e *Endpoint) Kill() { e.shutdown(false) }

func (e *Endpoint) shutdown(graceful bool) {
	e.closeOnce.Do(func() {
		// Send succeeds into the retransmit buffer during an outage, so a
		// graceful close right after must not tear the endpoint down while
		// buffered frames are still unwritten — the tail would be lost and
		// a redialing peer would find the listener gone. Linger until every
		// mid-outage link has flushed (a live conn implies the whole
		// buffered suffix was written: install retransmits it), bounded by
		// the heal window, after which the link is dead anyway. Aborted
		// worlds skip the linger — there is nothing left worth flushing.
		if graceful && e.AbortErr() == nil {
			e.lingerForFlush()
		}
		e.closed.Store(true)
		close(e.done)
		if e.ln != nil {
			if err := e.ln.Close(); err != nil && e.closeErr == nil {
				e.closeErr = err
			}
		}
		// A healthy close says goodbye; a poisoned close relays the abort
		// instead, so a peer that has not yet seen the original abort frame
		// still learns the world failed rather than mistaking this for an
		// orderly shutdown.
		farewell := []byte{frameBye}
		if ae := e.currentAbort(); ae != nil {
			farewell = abortFrame(ae)
		}
		for peer := range e.links {
			if peer == e.rank {
				continue
			}
			l := e.link(peer)
			if l == nil {
				continue
			}
			l.mu.Lock()
			if graceful && l.c != nil {
				l.c.SetWriteDeadline(time.Now().Add(250 * time.Millisecond))
				l.c.Write(farewell)
			}
			l.closed = true
			if l.c != nil {
				l.c.Close()
				l.c = nil
				l.gen++
			}
			if l.healTimer != nil {
				l.healTimer.Stop()
				l.healTimer = nil
			}
			l.downClose()
			l.cond.Broadcast()
			l.mu.Unlock()
		}
	})
}

// lingerForFlush blocks until no link is mid-outage with buffered frames
// still unwritten (the reconnect either happens — install retransmits the
// suffix — or the heal window declares the link dead). The kernel delivers
// frames already written to a live conn after Close; only never-written
// frames need this wait.
func (e *Endpoint) lingerForFlush() {
	deadline := time.Now().Add(e.cfg.healWindow + time.Second)
	for peer := range e.links {
		if peer == e.rank {
			continue
		}
		l := e.link(peer)
		if l == nil {
			continue
		}
		for {
			l.mu.Lock()
			waiting := l.c == nil && len(l.unacked) > 0 && !l.closed && l.failErr == nil && l.est
			l.mu.Unlock()
			if !waiting || e.AbortErr() != nil || !time.Now().Before(deadline) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// BreakConn severs the live connection to peer as if the network dropped
// it — a fault-injection hook for tests of the healing path. It reports
// whether a connection existed to break.
func (e *Endpoint) BreakConn(peer int) bool {
	if peer < 0 || peer >= e.size || peer == e.rank {
		return false
	}
	l := e.link(peer)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.c == nil {
		return false
	}
	l.breakLocked(l.c, errors.New("tcptransport: connection broken by fault injection"))
	return true
}

// downClose closes the link's down channel once.
func (l *link) downClose() {
	if !l.downed {
		l.downed = true
		close(l.down)
	}
}

// writeLocked writes one frame under the link lock with the configured
// write deadline, bounding how long a dead conn can wedge a writer.
func (l *link) writeLocked(c net.Conn, fr []byte) error {
	if wt := l.e.cfg.writeTimeout; wt > 0 {
		c.SetWriteDeadline(time.Now().Add(wt))
	}
	_, err := c.Write(fr)
	return err
}

// breakLocked starts an outage for conn c: the conn is dropped, a fail
// timer bounds the outage at the heal window, and the dialer side starts
// redialing. Stale calls (c already replaced) are no-ops. Outage handling
// runs even while the endpoint is poisoned: a recovering world needs its
// surviving links healed, not frozen.
func (l *link) breakLocked(c net.Conn, cause error) {
	if c == nil || l.c != c {
		return
	}
	l.c = nil
	l.gen++
	c.Close()
	if l.closed || l.failErr != nil || l.e.closed.Load() {
		return
	}
	hw := l.e.cfg.healWindow
	if hw <= 0 {
		l.failLocked(&transport.PeerError{Peer: l.peer,
			Err: fmt.Errorf("tcptransport: rank %d: link to %d down (healing disabled): %w: %v",
				l.e.rank, l.peer, transport.ErrPeerFailed, cause)})
		return
	}
	gen := l.gen
	if l.healTimer != nil {
		l.healTimer.Stop()
	}
	l.healTimer = time.AfterFunc(hw, func() { l.outageExpired(gen, cause) })
	if l.peer < l.e.rank && !l.dialing {
		l.dialing = true
		go l.redial()
	}
}

// outageExpired declares the peer dead when an outage outlives the heal
// window without a reconnect.
func (l *link) outageExpired(gen int, cause error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gen != gen || l.c != nil || l.closed || l.failErr != nil {
		return
	}
	l.failLocked(&transport.PeerError{Peer: l.peer,
		Err: fmt.Errorf("tcptransport: rank %d: %w: no connection with %d for %v (%w); last error: %v",
			l.e.rank, transport.ErrPeerFailed, l.peer, l.e.cfg.healWindow, transport.ErrTimeout, cause)})
}

// failLocked marks the link permanently dead.
func (l *link) failLocked(err error) {
	if l.failErr != nil || l.closed {
		return
	}
	l.failErr = err
	if l.c != nil {
		l.c.Close()
		l.c = nil
		l.gen++
	}
	if l.healTimer != nil {
		l.healTimer.Stop()
		l.healTimer = nil
	}
	l.downClose()
	l.cond.Broadcast()
}

// redial re-establishes a dropped connection (dialer side) with capped
// exponential backoff and deterministic jitter, until success, link
// death, or endpoint shutdown. Redial continues through an abort: a
// poisoned world may recover, and the next epoch needs the link.
func (l *link) redial() {
	e := l.e
	for attempt := 0; ; attempt++ {
		l.mu.Lock()
		if l.closed || l.failErr != nil || l.c != nil || e.closed.Load() {
			l.dialing = false
			l.mu.Unlock()
			return
		}
		recvd := l.recvd
		l.mu.Unlock()
		c, err := net.DialTimeout("tcp", e.addrs[l.peer], dialAttemptTimeout)
		if err == nil {
			if herr := e.dialHandshake(l, c, recvd); herr == nil {
				l.mu.Lock()
				l.dialing = false
				l.mu.Unlock()
				return
			}
			c.Close()
		}
		t := time.NewTimer(backoff(attempt, e.rank, l.peer))
		select {
		case <-e.done:
			t.Stop()
			l.mu.Lock()
			l.dialing = false
			l.mu.Unlock()
			return
		case <-t.C:
		}
	}
}

// backoff returns the delay before redial attempt (0-based): 5ms doubling
// to a 320ms cap, with deterministic jitter in [d/2, d] derived from the
// pair and attempt so a mesh of redialing ranks does not thunder in step.
func backoff(attempt, rank, peer int) time.Duration {
	d := 5 * time.Millisecond << uint(min(attempt, 6))
	x := uint64(attempt+1)*0x9e3779b97f4a7c15 + uint64(rank+1)*0xbf58476d1ce4e5b9 + uint64(peer+1)*0x94d049bb133111eb
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return d/2 + time.Duration(x%uint64(d/2+1))
}

// dialHandshake runs the dialer's side of the reconnect handshake: send
// rank, receive count and incarnation id, read the peer's, install.
func (e *Endpoint) dialHandshake(l *link, c net.Conn, recvd uint64) error {
	c.SetDeadline(time.Now().Add(handshakeTimeout))
	var hello [20]byte
	binary.LittleEndian.PutUint32(hello[0:], uint32(e.rank))
	binary.LittleEndian.PutUint64(hello[4:], recvd)
	binary.LittleEndian.PutUint64(hello[12:], e.boot)
	if _, err := c.Write(hello[:]); err != nil {
		return err
	}
	var reply [16]byte
	if _, err := io.ReadFull(c, reply[:]); err != nil {
		return err
	}
	c.SetDeadline(time.Time{})
	return l.install(c, binary.LittleEndian.Uint64(reply[0:]), binary.LittleEndian.Uint64(reply[8:]))
}

// bootID derives an incarnation id for one endpoint construction. Two
// constructions of the same rank — the original and a restart — must get
// different ids so a peer can tell a healed connection from a reborn
// process; nanosecond construction time mixed with the rank is ample.
func bootID(rank int) uint64 {
	x := uint64(time.Now().UnixNano()) + uint64(rank+1)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	if x == 0 {
		x = 1
	}
	return x
}

// install makes c the link's live conn: the peer's cumulative receive
// count prunes the retransmit buffer, the remainder is retransmitted, and
// a reader starts. Returns an error when the link cannot accept a conn
// (closing, failed), the peer turns out to be a new incarnation of an
// established one, or the retransmit write fails (the caller retries).
func (l *link) install(c net.Conn, peerRecvd, peerBoot uint64) error {
	e := l.e
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.failErr != nil || e.closed.Load() {
		return fmt.Errorf("tcptransport: rank %d: link to %d not accepting connections: %w", e.rank, l.peer, transport.ErrClosed)
	}
	if l.est && l.peerBoot != 0 && peerBoot != l.peerBoot {
		// The process behind this link restarted: it lost every frame and
		// all protocol state, so healing into it would silently resume a
		// world it never knew — and mask the death entirely when the
		// restart beats the heal window. The link to the old incarnation
		// is dead; after the survivors agree and Readmit, a fresh link
		// (with fresh counters) admits the new incarnation.
		err := &transport.PeerError{Peer: l.peer,
			Err: fmt.Errorf("tcptransport: rank %d: peer %d restarted (incarnation %#x, link established with %#x): %w",
				e.rank, l.peer, peerBoot, l.peerBoot, transport.ErrPeerFailed)}
		l.failLocked(err)
		return err
	}
	l.peerBoot = peerBoot
	if l.c != nil {
		// A replacement raced a conn we thought healthy (half-open on our
		// side); the newly handshaken one wins.
		old := l.c
		l.c = nil
		l.gen++
		old.Close()
	}
	if l.healTimer != nil {
		l.healTimer.Stop()
		l.healTimer = nil
	}
	base := l.sent - uint64(len(l.unacked))
	if peerRecvd < base {
		if l.est {
			// Cumulative acks cannot regress on a live peer: a lower count
			// means the process restarted and lost its receive state.
			// Healing into the new incarnation would silently resume a
			// world it never knew — and mask the death from the failure
			// detector when the restart beats the heal window. The link to
			// the old incarnation is dead; after the survivors agree,
			// Readmit installs a fresh link whose counters start at zero.
			err := &transport.PeerError{Peer: l.peer,
				Err: fmt.Errorf("tcptransport: rank %d: peer %d restarted (acknowledges %d frames, %d already delivered): %w",
					e.rank, l.peer, peerRecvd, base, transport.ErrPeerFailed)}
			l.failLocked(err)
			return err
		}
		peerRecvd = base // pre-establishment acks are advisory; start from base
	}
	if peerRecvd > l.sent {
		err := fmt.Errorf("tcptransport: rank %d: peer %d acknowledges %d frames, only %d sent: %w",
			e.rank, l.peer, peerRecvd, l.sent, transport.ErrPeerFailed)
		if !l.est {
			// A never-established link met a peer with stale state — a
			// pre-readmission straggler dialing a fresh link. Refuse the
			// conn but keep the link alive; the real handshake follows.
			return err
		}
		l.failLocked(err)
		return err
	}
	for i := 0; i < int(peerRecvd-base); i++ {
		l.unackedBytes -= len(l.unacked[i])
		l.unacked[i] = nil
	}
	l.unacked = l.unacked[peerRecvd-base:]
	l.sinceAck, l.sinceAckBytes = 0, 0
	l.c = c
	l.gen++
	if l.est {
		e.reconnects.Add(1)
	} else {
		l.est = true
		close(l.estCh)
	}
	for _, fr := range l.unacked {
		if err := l.writeLocked(c, fr); err != nil {
			l.breakLocked(c, err)
			return err
		}
	}
	l.cond.Broadcast()
	go e.reader(l, c, l.gen)
	return nil
}

// reader pumps frames from one conn into the link. Delivery bookkeeping
// (receive count, acks, enqueue) happens under the link lock so that a
// conn replacement can never reorder or double-deliver: a reader whose
// conn was replaced drops undelivered frames (the peer retransmits them
// on the new conn, exactly once). An abort frame poisons the endpoint
// but the reader keeps pumping — the link must survive the abort for the
// world to recover on it.
func (e *Endpoint) reader(l *link, c net.Conn, gen int) {
	br := bufio.NewReaderSize(c, 64<<10)
	fail := func(err error) {
		l.mu.Lock()
		l.breakLocked(c, err)
		l.mu.Unlock()
	}
	// One header scratch for the goroutine's lifetime: io.ReadFull's
	// interface argument makes a loop-local array escape, which would be
	// an allocation per frame.
	var hdr [12]byte
	for {
		kind, err := br.ReadByte()
		if err != nil {
			fail(err)
			return
		}
		switch kind {
		case frameData:
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				fail(err)
				return
			}
			tag := transport.Tag(binary.LittleEndian.Uint32(hdr[0:]))
			epoch := binary.LittleEndian.Uint32(hdr[4:])
			n := binary.LittleEndian.Uint32(hdr[8:])
			data := make([]byte, n)
			if _, err := io.ReadFull(br, data); err != nil {
				fail(err)
				return
			}
			l.mu.Lock()
			if l.c != c || l.gen != gen {
				// Replaced mid-frame: this frame is uncounted, so the
				// peer retransmits it on the new conn.
				l.mu.Unlock()
				return
			}
			l.recvd++
			l.sinceAck++
			l.sinceAckBytes += int(n)
			if l.sinceAck >= ackEvery || l.sinceAckBytes >= ackBytes {
				var ab [9]byte
				ab[0] = frameAck
				binary.LittleEndian.PutUint64(ab[1:], l.recvd)
				if err := l.writeLocked(c, ab[:]); err != nil {
					l.breakLocked(c, err)
					// The frame was counted, so it must still be
					// delivered before this reader exits.
					l.queue.push(message{tag: tag, data: data, epoch: epoch})
					l.mu.Unlock()
					return
				}
				l.sinceAck, l.sinceAckBytes = 0, 0
			}
			l.queue.push(message{tag: tag, data: data, epoch: epoch})
			l.mu.Unlock()
		case frameAck:
			var ab [8]byte
			if _, err := io.ReadFull(br, ab[:]); err != nil {
				fail(err)
				return
			}
			seq := binary.LittleEndian.Uint64(ab[:])
			l.mu.Lock()
			base := l.sent - uint64(len(l.unacked))
			if seq > l.sent {
				seq = l.sent
			}
			if seq > base {
				for i := 0; i < int(seq-base); i++ {
					l.unackedBytes -= len(l.unacked[i])
					l.unacked[i] = nil
				}
				l.unacked = l.unacked[seq-base:]
				l.cond.Broadcast()
			}
			l.mu.Unlock()
		case frameAbort:
			ae, err := readAbortFrame(br)
			if err != nil {
				fail(err)
				return
			}
			e.poison(ae)
		case frameBye:
			l.mu.Lock()
			if l.c == c && l.gen == gen {
				// A peer that said goodbye while we may still need it is,
				// from this side, a failed peer: attribute it so an abort
				// raised over this error blames the closer, not us.
				l.failLocked(&transport.PeerError{Peer: l.peer,
					Err: fmt.Errorf("tcptransport: rank %d: peer %d closed: %w", e.rank, l.peer, transport.ErrPeerFailed)})
			}
			l.mu.Unlock()
			return
		default:
			fail(fmt.Errorf("tcptransport: rank %d: peer %d sent unknown frame type %#x", e.rank, l.peer, kind))
			return
		}
	}
}

// acceptLoop accepts reconnecting (and bring-up) peers for the life of
// the endpoint — the listener stays open so a dropped peer can return.
func (e *Endpoint) acceptLoop() {
	for {
		c, err := e.ln.Accept()
		if err != nil {
			select {
			case <-e.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		go e.handleAccept(c)
	}
}

// handleAccept runs the acceptor's side of the handshake: read the
// dialer's rank and receive count, reply with ours, install. Only higher
// ranks dial us, mirroring bring-up. A failed or closing link refuses
// before replying, so a rejoining peer's fresh counters are never
// confronted with our stale ones — it backs off and retries until
// Readmit replaces the link.
func (e *Endpoint) handleAccept(c net.Conn) {
	c.SetDeadline(time.Now().Add(handshakeTimeout))
	var hello [20]byte
	if _, err := io.ReadFull(c, hello[:]); err != nil {
		c.Close()
		return
	}
	peer := int(binary.LittleEndian.Uint32(hello[0:]))
	peerRecvd := binary.LittleEndian.Uint64(hello[4:])
	peerBoot := binary.LittleEndian.Uint64(hello[12:])
	if peer <= e.rank || peer >= e.size {
		c.Close()
		return
	}
	l := e.link(peer)
	// Drop any half-open conn first, so the receive count we report can
	// no longer advance under us.
	l.mu.Lock()
	if l.failErr != nil || l.closed {
		l.mu.Unlock()
		c.Close()
		return
	}
	if l.c != nil {
		old := l.c
		l.c = nil
		l.gen++
		old.Close()
	}
	recvd := l.recvd
	l.mu.Unlock()
	var reply [16]byte
	binary.LittleEndian.PutUint64(reply[0:], recvd)
	binary.LittleEndian.PutUint64(reply[8:], e.boot)
	if _, err := c.Write(reply[:]); err != nil {
		c.Close()
		return
	}
	c.SetDeadline(time.Time{})
	if err := l.install(c, peerRecvd, peerBoot); err != nil {
		c.Close()
	}
}

// dataFrame encodes one message frame (also the retransmit buffer entry).
func dataFrame(tag transport.Tag, epoch uint32, p []byte) []byte {
	fr := make([]byte, 13+len(p))
	fr[0] = frameData
	binary.LittleEndian.PutUint32(fr[1:], uint32(tag))
	binary.LittleEndian.PutUint32(fr[5:], epoch)
	binary.LittleEndian.PutUint32(fr[9:], uint32(len(p)))
	copy(fr[13:], p)
	return fr
}

// abortFrame encodes the out-of-band abort broadcast: origin, failed set,
// reason text.
func abortFrame(ae *transport.AbortError) []byte {
	text := ae.Reason
	if len(text) > 1<<10 {
		text = text[:1<<10]
	}
	failed := ae.Failed
	if len(failed) > 1<<12 {
		failed = failed[:1<<12]
	}
	fr := make([]byte, 13+4*len(failed)+len(text))
	fr[0] = frameAbort
	binary.LittleEndian.PutUint32(fr[1:], uint32(ae.Origin))
	binary.LittleEndian.PutUint32(fr[5:], uint32(len(failed)))
	off := 9
	for _, r := range failed {
		binary.LittleEndian.PutUint32(fr[off:], uint32(r))
		off += 4
	}
	binary.LittleEndian.PutUint32(fr[off:], uint32(len(text)))
	copy(fr[off+4:], text)
	return fr
}

// readAbortFrame decodes the body of an abort frame.
func readAbortFrame(br *bufio.Reader) (*transport.AbortError, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	origin := int(binary.LittleEndian.Uint32(hdr[0:]))
	nf := binary.LittleEndian.Uint32(hdr[4:])
	if nf > 1<<12 {
		return nil, fmt.Errorf("tcptransport: abort frame names %d failed ranks", nf)
	}
	failed := make([]int, nf)
	var rb [4]byte
	for i := range failed {
		if _, err := io.ReadFull(br, rb[:]); err != nil {
			return nil, err
		}
		failed[i] = int(binary.LittleEndian.Uint32(rb[:]))
	}
	if _, err := io.ReadFull(br, rb[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(rb[:])
	if n > 1<<10 {
		return nil, fmt.Errorf("tcptransport: abort frame reason of %d bytes", n)
	}
	reason := make([]byte, n)
	if _, err := io.ReadFull(br, reason); err != nil {
		return nil, err
	}
	// Reconstruct the abort verbatim: the sender's failed set is already
	// normalized, and must not be re-normalized into including the origin —
	// an agreement-restart abort deliberately excludes its live raiser.
	return &transport.AbortError{Origin: origin, Failed: failed, Reason: string(reason)}, nil
}

// Option configures world construction.
type Option func(*config)

type config struct {
	timeout      time.Duration // receive timeout (0 = none)
	writeTimeout time.Duration // per-frame write deadline
	healWindow   time.Duration // max outage length before a peer is declared failed
	dialWindow   time.Duration // bring-up window
}

func defaultConfig() config {
	return config{
		writeTimeout: 30 * time.Second,
		healWindow:   10 * time.Second,
		dialWindow:   5 * time.Second,
	}
}

// WithRecvTimeout makes receives fail with an error wrapping
// transport.ErrTimeout after d (deadlock safety in tests).
func WithRecvTimeout(d time.Duration) Option {
	return func(c *config) { c.timeout = d }
}

// WithWriteTimeout bounds each frame write (default 30s); a conn that
// cannot accept a frame within it is treated as dropped and healed.
func WithWriteTimeout(d time.Duration) Option {
	return func(c *config) { c.writeTimeout = d }
}

// WithHealWindow bounds how long a link may stay in outage (reconnect
// attempts continuing throughout) before the peer is declared failed with
// transport.ErrPeerFailed (default 10s). Zero disables healing: the first
// connection error is fatal.
func WithHealWindow(d time.Duration) Option {
	return func(c *config) { c.healWindow = d }
}

// WithDialWindow bounds world bring-up (default 5s).
func WithDialWindow(d time.Duration) Option {
	return func(c *config) { c.dialWindow = d }
}

// NewLocalWorld wires p ranks over loopback TCP inside one process and
// returns their endpoints. It is the single-process form of the transport,
// used by tests and examples; multi-process deployments use Listen and
// Connect directly.
func NewLocalWorld(p int, opts ...Option) ([]*Endpoint, error) {
	if p <= 0 {
		return nil, fmt.Errorf("tcptransport: world size %d, need at least 1", p)
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	listeners := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := 0; i < p; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, ln := range listeners[:i] {
				ln.Close()
			}
			return nil, fmt.Errorf("tcptransport: listen: %w", err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	eps := make([]*Endpoint, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eps[i], errs[i] = connect(i, p, listeners[i], addrs, cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, ep := range eps {
				if ep != nil {
					ep.Close()
				}
			}
			return nil, fmt.Errorf("tcptransport: rank %d: %w", i, err)
		}
	}
	return eps, nil
}

// Listen opens rank's listener on addr (host:port; use port 0 to let the
// OS choose) for a multi-process world.
func Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// Connect joins a world of len(addrs) ranks as the given rank, using the
// provided listener (whose address must equal addrs[rank]). Every rank
// dials all lower ranks and accepts from all higher ranks; the listener
// stays open for the life of the endpoint so dropped peers can reconnect.
func Connect(rank int, l net.Listener, addrs []string, opts ...Option) (*Endpoint, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return connect(rank, len(addrs), l, addrs, cfg)
}

// Rejoin re-enters an existing world as a killed-and-restarted rank: the
// same wiring as Connect (dial every lower rank, accept from every higher
// one), but construction does not wait for establishment and never fails
// on unreachable peers — some of them are dead, and the live ones admit
// this rank only once they call Readmit. Links establish lazily: sends
// buffer, receives block until the peer's Readmit installs the fresh
// connection. The caller learns the world's epoch and failed set from the
// survivors' readmission state sync and applies it with AdoptEpoch, which
// also stops the redial loops aimed at agreed-dead peers.
func Rejoin(rank int, ln net.Listener, addrs []string, opts ...Option) (*Endpoint, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if rank < 0 || rank >= len(addrs) {
		return nil, fmt.Errorf("%w: rejoin as rank %d, world size %d", transport.ErrRank, rank, len(addrs))
	}
	e := newEndpoint(rank, len(addrs), ln, addrs, cfg)
	go e.acceptLoop()
	for peer := 0; peer < rank; peer++ {
		l := e.link(peer)
		l.mu.Lock()
		l.dialing = true
		l.mu.Unlock()
		go l.redial()
	}
	return e, nil
}

func newEndpoint(rank, p int, ln net.Listener, addrs []string, cfg config) *Endpoint {
	e := &Endpoint{
		rank: rank, size: p,
		boot:      bootID(rank),
		cfg:       cfg,
		addrs:     addrs,
		ln:        ln,
		links:     make([]atomic.Pointer[link], p),
		loopback:  newLinkQueue(),
		done:      make(chan struct{}),
		abortedCh: make(chan struct{}),
	}
	for peer := 0; peer < p; peer++ {
		if peer != rank {
			e.links[peer].Store(newLink(e, peer))
		}
	}
	return e
}

func connect(rank, p int, ln net.Listener, addrs []string, cfg config) (*Endpoint, error) {
	e := newEndpoint(rank, p, ln, addrs, cfg)
	go e.acceptLoop()
	for peer := 0; peer < rank; peer++ {
		l := e.link(peer)
		l.mu.Lock()
		l.dialing = true
		l.mu.Unlock()
		go l.redial()
	}
	deadline := time.Now().Add(cfg.dialWindow)
	for peer := 0; peer < p; peer++ {
		if peer == rank {
			continue
		}
		select {
		case <-e.link(peer).estCh:
		case <-time.After(time.Until(deadline)):
			e.Close()
			return nil, fmt.Errorf("tcptransport: rank %d: bring-up: no connection with %d within %v: %w",
				rank, peer, cfg.dialWindow, transport.ErrTimeout)
		}
	}
	return e, nil
}
