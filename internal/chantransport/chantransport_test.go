package chantransport

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/transport"
)

// mustWorld builds a world or fails the test.
func mustWorld(t *testing.T, size int, opts ...Option) *World {
	t.Helper()
	w, err := NewWorld(size, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// mustEndpoint fetches a rank's endpoint or fails the test.
func mustEndpoint(t *testing.T, w *World, rank int) *Endpoint {
	t.Helper()
	ep, err := w.Endpoint(rank)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// TestBasicSendRecv: payload integrity and length reporting.
func TestBasicSendRecv(t *testing.T) {
	w := mustWorld(t, 2)
	err := w.Run(func(ep *Endpoint) error {
		if ep.Rank() == 0 {
			return ep.Send(1, 9, []byte{1, 2, 3})
		}
		buf := make([]byte, 8)
		n, err := ep.Recv(0, 9, buf)
		if err != nil {
			return err
		}
		if n != 3 || !bytes.Equal(buf[:3], []byte{1, 2, 3}) {
			return fmt.Errorf("got n=%d buf=%v", n, buf[:n])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendCopiesBuffer: the sender may reuse its buffer immediately, and a
// payload buffer recycled through the sender's free list carries nothing
// over: both sides scribble on their buffers after each call returns, and
// the next message through the same pair still arrives intact.
func TestSendCopiesBuffer(t *testing.T) {
	w := mustWorld(t, 2)
	err := w.Run(func(ep *Endpoint) error {
		if ep.Rank() == 0 {
			buf := []byte{42}
			if err := ep.Send(1, 1, buf); err != nil {
				return err
			}
			buf[0] = 99 // must not affect the in-flight message
			if err := ep.Send(1, 2, buf); err != nil {
				return err
			}
			// Wait for the receiver to hand the first buffers back, so the
			// next sends draw on recycled ones.
			if _, err := ep.Recv(1, 3, nil); err != nil {
				return err
			}
			for i := 0; i < 50; i++ {
				msg := bytes.Repeat([]byte{byte(i)}, 1+i%7)
				if err := ep.Send(1, 4, msg); err != nil {
					return err
				}
				for j := range msg {
					msg[j] = 0xEE
				}
				if _, err := ep.Recv(1, 5, nil); err != nil {
					return err
				}
			}
			return nil
		}
		buf := make([]byte, 8)
		if _, err := ep.Recv(0, 1, buf); err != nil {
			return err
		}
		if buf[0] != 42 {
			return fmt.Errorf("first message mutated: %d", buf[0])
		}
		if _, err := ep.Recv(0, 2, buf); err != nil {
			return err
		}
		if err := ep.Send(0, 3, nil); err != nil {
			return err
		}
		for i := 0; i < 50; i++ {
			n, err := ep.Recv(0, 4, buf)
			if err != nil {
				return err
			}
			if want := bytes.Repeat([]byte{byte(i)}, 1+i%7); !bytes.Equal(buf[:n], want) {
				return fmt.Errorf("message %d through a recycled buffer: got %v, want %v", i, buf[:n], want)
			}
			for j := range buf {
				buf[j] = 0xDD
			}
			if err := ep.Send(0, 5, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFIFO: per-pair order is preserved under load.
func TestFIFO(t *testing.T) {
	const k = 500
	w, werr := NewWorld(2, WithBuffer(8))
	if werr != nil {
		t.Fatal(werr)
	}
	err := w.Run(func(ep *Endpoint) error {
		if ep.Rank() == 0 {
			for i := 0; i < k; i++ {
				if err := ep.Send(1, transport.Tag(i%7), []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		buf := make([]byte, 1)
		for i := 0; i < k; i++ {
			if _, err := ep.Recv(0, transport.Tag(i%7), buf); err != nil {
				return err
			}
			if buf[0] != byte(i) {
				return fmt.Errorf("out of order at %d: %d", i, buf[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestErrors: tag mismatch, truncation, rank bounds, closed endpoint.
func TestErrors(t *testing.T) {
	w := mustWorld(t, 2)
	ep0 := mustEndpoint(t, w, 0)
	ep1 := mustEndpoint(t, w, 1)
	if err := ep0.Send(1, 5, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := ep1.Recv(0, 6, make([]byte, 2)); !errors.Is(err, transport.ErrTagMismatch) {
		t.Errorf("want tag mismatch, got %v", err)
	}
	if err := ep0.Send(1, 5, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := ep1.Recv(0, 5, make([]byte, 1)); !errors.Is(err, transport.ErrTruncate) {
		t.Errorf("want truncate, got %v", err)
	}
	if err := ep0.Send(7, 1, nil); !errors.Is(err, transport.ErrRank) {
		t.Errorf("want rank error, got %v", err)
	}
	ep0.Close()
	if err := ep0.Send(1, 1, nil); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("want closed, got %v", err)
	}
	if _, err := ep0.Recv(1, 1, nil); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("want closed, got %v", err)
	}
}

// TestRecvTimeout: deadlocks become errors.
func TestRecvTimeout(t *testing.T) {
	w := mustWorld(t, 2, WithRecvTimeout(20*time.Millisecond))
	ep := mustEndpoint(t, w, 0)
	start := time.Now()
	if _, err := ep.Recv(1, 1, nil); err == nil {
		t.Fatal("timeout did not fire")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout took too long")
	}
}

// TestRingSendRecvNoDeadlock: a simultaneous ring exchange completes for
// odd and even sizes.
func TestRingSendRecvNoDeadlock(t *testing.T) {
	for _, p := range []int{2, 3, 8, 9} {
		p := p
		w := mustWorld(t, p)
		err := w.Run(func(ep *Endpoint) error {
			me := ep.Rank()
			sb := []byte{byte(me)}
			rb := make([]byte, 1)
			if _, err := ep.SendRecv((me+1)%p, 3, sb, (me+p-1)%p, 3, rb); err != nil {
				return err
			}
			if rb[0] != byte((me+p-1)%p) {
				return fmt.Errorf("got %d", rb[0])
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestRunPropagatesFirstError: the lowest-rank failure is reported.
func TestRunPropagatesFirstError(t *testing.T) {
	w := mustWorld(t, 3)
	err := w.Run(func(ep *Endpoint) error {
		if ep.Rank() >= 1 {
			return fmt.Errorf("boom %d", ep.Rank())
		}
		return nil
	})
	if err == nil || err.Error() != "rank 1: boom 1" {
		t.Errorf("got %v", err)
	}
}

// TestNewWorldBadSize: invalid construction is a diagnosable error, not a
// crash.
func TestNewWorldBadSize(t *testing.T) {
	for _, size := range []int{0, -3} {
		if _, err := NewWorld(size); err == nil {
			t.Errorf("size %d accepted", size)
		}
	}
}

// TestEndpointBadRank: out-of-range ranks are diagnosable errors carrying
// transport.ErrRank.
func TestEndpointBadRank(t *testing.T) {
	w := mustWorld(t, 3)
	for _, rank := range []int{-1, 3, 100} {
		if _, err := w.Endpoint(rank); !errors.Is(err, transport.ErrRank) {
			t.Errorf("rank %d: want ErrRank, got %v", rank, err)
		}
	}
	if ep, err := w.Endpoint(2); err != nil || ep.Rank() != 2 {
		t.Errorf("valid rank rejected: %v", err)
	}
}

// TestRingDepthOne: WithBuffer's contract. A full ring of back-to-back
// SendRecvs, a rank exchanging with itself included, completes at the
// smallest queue depth; a deadlock would surface as the receive timeout.
func TestRingDepthOne(t *testing.T) {
	const p, k = 8, 2000
	w := mustWorld(t, p, WithBuffer(1), WithRecvTimeout(10*time.Second))
	err := w.Run(func(ep *Endpoint) error {
		me := ep.Rank()
		right, left := (me+1)%p, (me+p-1)%p
		sb, rb := make([]byte, 2), make([]byte, 2)
		for i := 0; i < k; i++ {
			sb[0], sb[1] = byte(me), byte(i)
			if _, err := ep.SendRecv(right, 3, sb, left, 3, rb); err != nil {
				return fmt.Errorf("exchange %d: %w", i, err)
			}
			if rb[0] != byte(left) || rb[1] != byte(i) {
				return fmt.Errorf("exchange %d: got %v from %d", i, rb, left)
			}
		}
		if _, err := ep.SendRecv(me, 4, sb, me, 4, rb); err != nil {
			return fmt.Errorf("self exchange: %w", err)
		}
		if !bytes.Equal(rb, sb) {
			return fmt.Errorf("self exchange: got %v, want %v", rb, sb)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendRecvErrorContract: the receive half's error wins over the send
// half's and abandons a send half still blocked on a full queue, a failed
// send half still lets the receive deliver, and no goroutine outlives a call.
func TestSendRecvErrorContract(t *testing.T) {
	w := mustWorld(t, 3, WithRecvTimeout(5*time.Second))
	ep0, ep1 := mustEndpoint(t, w, 0), mustEndpoint(t, w, 1)
	ep0.Reset([]int{2}) // healthy world: only records rank 2 as dead
	rb := make([]byte, 1)

	if err := ep1.Send(0, 5, []byte{7}); err != nil {
		t.Fatal(err)
	}
	n, err := ep0.SendRecv(2, 5, []byte{1}, 1, 5, rb)
	var pe *transport.PeerError
	if !errors.As(err, &pe) || pe.Peer != 2 || !errors.Is(err, transport.ErrPeerFailed) {
		t.Errorf("send to a dead rank: want PeerError blaming 2, got %v", err)
	}
	if n != 1 || rb[0] != 7 {
		t.Errorf("receive half beside a failed send: n=%d rb=%v, want the payload delivered", n, rb)
	}

	if err := ep1.Send(0, 5, []byte{8}); err != nil {
		t.Fatal(err)
	}
	if _, err := ep0.SendRecv(2, 5, []byte{1}, 1, 6, rb); !errors.Is(err, transport.ErrTagMismatch) {
		t.Errorf("both halves fail: want the receive's tag mismatch, got %v", err)
	}

	// A receive error does not wait for a blocked send half: the outgoing
	// message is then never sent.
	w1 := mustWorld(t, 2, WithBuffer(1), WithRecvTimeout(5*time.Second))
	a, b := mustEndpoint(t, w1, 0), mustEndpoint(t, w1, 1)
	if err := a.Send(1, 5, []byte{1}); err != nil { // fills the 0→1 queue
		t.Fatal(err)
	}
	if err := b.Send(0, 6, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SendRecv(1, 5, []byte{3}, 1, 5, rb); !errors.Is(err, transport.ErrTagMismatch) {
		t.Errorf("receive error beside a blocked send: want tag mismatch, got %v", err)
	}
	if n, err := b.Recv(0, 5, rb); err != nil || n != 1 || rb[0] != 1 {
		t.Errorf("first message: n=%d rb=%v err=%v", n, rb, err)
	}
	if q := len(w1.queue[0][1]); q != 0 {
		t.Errorf("abandoned send half left %d messages queued, want 0", q)
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 10000; i++ {
		if _, err := ep0.SendRecv(0, 9, []byte{byte(i)}, 0, 9, rb); err != nil || rb[0] != byte(i) {
			t.Fatalf("self exchange %d: rb=%v err=%v", i, rb, err)
		}
	}
	// Fewer is fine: an earlier test's goroutine may still have been exiting.
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before 10000 exchanges, %d after", before, after)
	}
}

// TestZeroAllocs: a warmed-up message allocates nothing — no goroutine,
// timer, result channel or payload buffer — on a Send+Recv pair and on a
// 4-rank SendRecv ring, the other three ranks keeping step in goroutines.
func TestZeroAllocs(t *testing.T) {
	const p, runs = 4, 500
	for _, size := range []int{8, 1024} {
		w := mustWorld(t, p, WithRecvTimeout(30*time.Second))
		ep0, ep1 := mustEndpoint(t, w, 0), mustEndpoint(t, w, 1)
		sb, rb := make([]byte, size), make([]byte, size)
		pair := func() {
			if err := ep0.Send(1, 1, sb); err != nil {
				t.Error(err)
			}
			if _, err := ep1.Recv(0, 1, rb); err != nil {
				t.Error(err)
			}
		}
		if a := testing.AllocsPerRun(runs, pair); a != 0 {
			t.Errorf("%d B Send+Recv: %v allocs per message, want 0", size, a)
		}

		errs := make(chan error, p-1)
		for r := 1; r < p; r++ {
			go func(ep *Endpoint) {
				me := ep.Rank()
				sb, rb := make([]byte, size), make([]byte, size)
				var err error
				for i := 0; i < runs+1 && err == nil; i++ { // AllocsPerRun warms up with one extra call
					_, err = ep.SendRecv((me+1)%p, 2, sb, (me+p-1)%p, 2, rb)
				}
				errs <- err
			}(mustEndpoint(t, w, r))
		}
		ring := func() {
			if _, err := ep0.SendRecv(1, 2, sb, p-1, 2, rb); err != nil {
				t.Error(err)
			}
		}
		if a := testing.AllocsPerRun(runs, ring); a != 0 {
			t.Errorf("%d B SendRecv ring: %v allocs per exchange, want 0", size, a)
		}
		for r := 1; r < p; r++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	}
}

// TestTimerReuse: the deadline timer an endpoint reuses behaves like a fresh
// one every time. After many receives that never armed it and many that
// armed and stopped it, a receive with no sender still times out after the
// configured time, and neither a timer that fired nor one that was stopped
// shortens the next receive's deadline.
func TestTimerReuse(t *testing.T) {
	const timeout = 400 * time.Millisecond
	w := mustWorld(t, 2, WithRecvTimeout(timeout))
	ep0, ep1 := mustEndpoint(t, w, 0), mustEndpoint(t, w, 1)
	buf := make([]byte, 1)
	for i := 0; i < 5000; i++ { // ready messages: the timer is never armed
		if err := ep1.Send(0, 1, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ep0.Recv(1, 1, buf); err != nil {
			t.Fatal(err)
		}
	}
	go func() { // blocking receives: armed, then stopped by the arrival
		buf := make([]byte, 1)
		for i := 0; i < 5000; i++ {
			if ep1.Send(0, 2, buf) != nil {
				return
			}
			if _, err := ep1.Recv(0, 3, buf); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 5000; i++ {
		if _, err := ep0.Recv(1, 2, buf); err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
		if err := ep0.Send(1, 3, buf); err != nil {
			t.Fatal(err)
		}
	}
	silent := func() {
		t.Helper()
		start := time.Now()
		_, err := ep0.Recv(1, 4, buf)
		if d := time.Since(start); !errors.Is(err, transport.ErrTimeout) || d < timeout || d > 10*timeout {
			t.Fatalf("receive with no sender: %v after %v, want ErrTimeout after %v", err, d, timeout)
		}
	}
	// late sends a message the receiver has to wait most of a timeout for:
	// a deadline left over from the previous call would cut the wait short.
	late := func() {
		t.Helper()
		go func() {
			time.Sleep(timeout * 5 / 8)
			ep1.Send(0, 4, []byte{1})
		}()
		if _, err := ep0.Recv(1, 4, buf); err != nil {
			t.Fatalf("late message: %v", err)
		}
	}
	silent() // after 10 000 successful receives
	late()   // after a timer that fired
	late()   // after a timer that was stopped with most of its time gone
	silent()
}

// TestConcurrentReceivers: two goroutines may block in Recv on one endpoint
// at once, each on its own peer (Sub communicators own a progress goroutine
// each); the second finds the endpoint's timer taken and must not disturb it.
func TestConcurrentReceivers(t *testing.T) {
	const k = 2000
	w := mustWorld(t, 3, WithRecvTimeout(10*time.Second))
	ep0 := mustEndpoint(t, w, 0)
	errs := make(chan error, 4)
	for peer := 1; peer <= 2; peer++ {
		go func(ep *Endpoint) { // the peer: answers each message it gets
			buf := make([]byte, 1)
			for i := 0; i < k; i++ {
				if _, err := ep.Recv(0, 1, buf); err != nil {
					errs <- err
					return
				}
				if err := ep.Send(0, 2, buf); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(mustEndpoint(t, w, peer))
		go func(peer int) { // rank 0's receiver for this peer
			buf := make([]byte, 1)
			for i := 0; i < k; i++ {
				buf[0] = byte(i)
				if err := ep0.Send(peer, 1, buf); err != nil {
					errs <- err
					return
				}
				if _, err := ep0.Recv(peer, 2, buf); err != nil || buf[0] != byte(i) {
					errs <- fmt.Errorf("from %d, message %d: buf=%v err=%v", peer, i, buf, err)
					return
				}
			}
			errs <- nil
		}(peer)
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestAbortWakesSendRecv: an abort reaches a SendRecv blocked in either
// half within milliseconds, long before the receive timeout.
func TestAbortWakesSendRecv(t *testing.T) {
	for _, blockedIn := range []string{"send", "receive"} {
		w := mustWorld(t, 2, WithBuffer(1), WithRecvTimeout(30*time.Second))
		ep0, ep1 := mustEndpoint(t, w, 0), mustEndpoint(t, w, 1)
		rb := make([]byte, 1)
		if blockedIn == "send" {
			// Rank 1 never drains: fill the pair's one slot, and let rank
			// 0's own receive half complete, so only its send half blocks.
			if err := ep0.Send(1, 1, rb); err != nil {
				t.Fatal(err)
			}
			if err := ep1.Send(0, 1, rb); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan error, 1)
		go func() {
			_, err := ep0.SendRecv(1, 1, rb, 1, 1, rb)
			done <- err
		}()
		time.Sleep(20 * time.Millisecond) // let it block
		start := time.Now()
		ep1.Abort(errors.New("boom"))
		select {
		case err := <-done:
			var ae *transport.AbortError
			if !errors.As(err, &ae) || ae.Origin != 1 {
				t.Errorf("blocked in %s: want rank 1's poison, got %v", blockedIn, err)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("blocked in %s: woke after %v", blockedIn, d)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("blocked in %s: abort did not wake the exchange", blockedIn)
		}
	}
}
