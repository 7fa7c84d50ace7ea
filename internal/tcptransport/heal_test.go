package tcptransport

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/transport"
)

// Healing-path suite: transient connection loss must be invisible to the
// program (the stream resumes in order, no duplicate, no loss), while a
// genuinely dead peer must fail every survivor with ErrPeerFailed within
// the heal window.

// TestReconnectResumesStream: a long message stream survives repeated
// connection breaks injected from both sides — the reconnect handshake's
// cumulative-count exchange retransmits exactly the unacked suffix.
func TestReconnectResumesStream(t *testing.T) {
	eps := localWorld(t, 2)
	const k = 200
	err := runAll(eps, func(ep *Endpoint) error {
		if ep.Rank() == 0 {
			for i := 0; i < k; i++ {
				switch {
				case i > 0 && i%80 == 0:
					eps[1].BreakConn(0) // receiver-side break
				case i%80 == 40:
					eps[0].BreakConn(1) // sender-side break
				}
				p := make([]byte, i%64+1)
				for j := range p {
					p[j] = byte(i)
				}
				if err := ep.Send(1, transport.Tag(i), p); err != nil {
					return fmt.Errorf("send %d: %w", i, err)
				}
			}
			return nil
		}
		buf := make([]byte, 64)
		for i := 0; i < k; i++ {
			n, err := ep.Recv(0, transport.Tag(i), buf)
			if err != nil {
				return fmt.Errorf("recv %d: %w", i, err)
			}
			if n != i%64+1 || buf[0] != byte(i) {
				return fmt.Errorf("recv %d: n=%d first=%d — stream reordered or corrupted", i, n, buf[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := eps[0].Reconnects() + eps[1].Reconnects(); r == 0 {
		t.Fatal("stream completed but no reconnect happened — the breaks did not exercise healing")
	}
}

// TestCollectiveThroughReconnect: a collective completes correctly even
// when connections are severed between (and during) iterations — the
// acceptance criterion for transient-fault transparency.
func TestCollectiveThroughReconnect(t *testing.T) {
	const p, count, iters = 4, 32, 6
	eps := localWorld(t, p)
	long := model.BucketShape(group.Linear(p))
	err := runAll(eps, func(ep *Endpoint) error {
		me := ep.Rank()
		for it := 0; it < iters; it++ {
			if me == 0 && it > 0 {
				// Sever a different link each iteration, including mid-mesh.
				eps[it%p].BreakConn((it + 1) % p)
			}
			in := make([]int64, count)
			for i := range in {
				in[i] = int64(me*100 + i + it)
			}
			buf := make([]byte, count*8)
			tmp := make([]byte, count*8)
			datatype.PutInt64s(buf, in)
			c := core.NewCtx(ep, uint32(it+1))
			if err := c.Run(core.Buffers{Buf: buf, Tmp: tmp})(core.BuildAllReduce(c, long, count, datatype.Int64, datatype.Sum)); err != nil {
				return fmt.Errorf("iter %d: %w", it, err)
			}
			got := datatype.Int64s(buf)
			for i := range got {
				var want int64
				for r := 0; r < p; r++ {
					want += int64(r*100 + i + it)
				}
				if got[i] != want {
					return fmt.Errorf("iter %d elem %d = %d, want %d", it, i, got[i], want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ep := range eps {
		total += ep.Reconnects()
	}
	if total == 0 {
		t.Fatal("collectives completed but no reconnect happened — the breaks did not exercise healing")
	}
}

// TestDeadPeerFailsBounded: a killed peer (no bye frame — a crash, not a
// close) is declared failed within the heal window: survivors' pending
// receives return an error wrapping ErrPeerFailed, with wall time bounded
// by the window plus slack, not by the receive timeout.
func TestDeadPeerFailsBounded(t *testing.T) {
	const heal = 300 * time.Millisecond
	eps, err := NewLocalWorld(2, WithRecvTimeout(time.Minute), WithHealWindow(heal))
	if err != nil {
		t.Fatal(err)
	}
	defer eps[0].Close()
	eps[1].Kill()
	start := time.Now()
	_, rerr := eps[0].Recv(1, 1, make([]byte, 4))
	elapsed := time.Since(start)
	if rerr == nil {
		t.Fatal("receive from killed peer succeeded")
	}
	if !errors.Is(rerr, transport.ErrPeerFailed) {
		t.Fatalf("error %v does not wrap ErrPeerFailed", rerr)
	}
	if elapsed > heal+5*time.Second {
		t.Fatalf("failure detection took %v, want about the %v heal window", elapsed, heal)
	}
}

// TestCloseFlushesOutageBuffer: a sender that closes gracefully right
// after an outage must not lose its buffered tail — Close lingers until
// the reconnect retransmits the suffix, keeping the listener alive so the
// peer can redial. Without the linger the receiver is stranded: the
// buffered frames were never written anywhere and the listener is gone.
func TestCloseFlushesOutageBuffer(t *testing.T) {
	eps, err := NewLocalWorld(2, WithRecvTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	const k = 50
	res := make(chan error, 2)
	go func() {
		defer eps[0].Close() // immediately after the last buffered send
		for i := 0; i < k; i++ {
			if i == k/2 {
				eps[0].BreakConn(1)
			}
			if err := eps[0].Send(1, transport.Tag(i), []byte{byte(i)}); err != nil {
				res <- fmt.Errorf("send %d: %w", i, err)
				return
			}
		}
		res <- nil
	}()
	go func() {
		defer eps[1].Close()
		buf := make([]byte, 1)
		for i := 0; i < k; i++ {
			if _, err := eps[1].Recv(0, transport.Tag(i), buf); err != nil {
				res <- fmt.Errorf("recv %d: %w", i, err)
				return
			}
			if buf[0] != byte(i) {
				res <- fmt.Errorf("recv %d: got %d", i, buf[0])
				return
			}
		}
		res <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-res; err != nil {
			t.Fatal(err)
		}
	}
}

// TestBrokenThenClosed: a peer that closes gracefully during an outage is
// reported as closed/failed — not healed forever. Guards the interaction
// of BreakConn with shutdown.
func TestBrokenThenClosed(t *testing.T) {
	const heal = 400 * time.Millisecond
	eps, err := NewLocalWorld(2, WithRecvTimeout(time.Minute), WithHealWindow(heal))
	if err != nil {
		t.Fatal(err)
	}
	defer eps[0].Close()
	eps[0].BreakConn(1)
	eps[1].Kill()
	start := time.Now()
	if serr := func() error {
		for i := 0; ; i++ {
			if err := eps[0].Send(1, transport.Tag(i), []byte{1}); err != nil {
				return err
			}
			if time.Since(start) > 10*time.Second {
				return nil
			}
		}
	}(); serr == nil {
		t.Fatal("sends to a dead peer never failed")
	} else if !errors.Is(serr, transport.ErrPeerFailed) {
		t.Fatalf("send error %v does not wrap ErrPeerFailed", serr)
	}
}
