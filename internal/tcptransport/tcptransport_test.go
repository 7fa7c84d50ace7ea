package tcptransport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/transport"
)

func localWorld(t *testing.T, p int) []*Endpoint {
	t.Helper()
	eps, err := NewLocalWorld(p, WithRecvTimeout(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps
}

// runAll executes fn per rank and returns the first error.
func runAll(eps []*Endpoint, fn func(ep *Endpoint) error) error {
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep *Endpoint) {
			defer wg.Done()
			errs[i] = fn(ep)
		}(i, ep)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", i, err)
		}
	}
	return nil
}

// TestPointToPoint: framing round trip with tags and big payloads.
func TestPointToPoint(t *testing.T) {
	eps := localWorld(t, 2)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	err := runAll(eps, func(ep *Endpoint) error {
		if ep.Rank() == 0 {
			if err := ep.Send(1, 7, []byte("hello")); err != nil {
				return err
			}
			return ep.Send(1, 8, big)
		}
		buf := make([]byte, 5)
		if n, err := ep.Recv(0, 7, buf); err != nil || n != 5 || string(buf) != "hello" {
			return fmt.Errorf("small recv: n=%d err=%v buf=%q", n, err, buf)
		}
		got := make([]byte, len(big))
		if n, err := ep.Recv(0, 8, got); err != nil || n != len(big) {
			return fmt.Errorf("big recv: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got, big) {
			return fmt.Errorf("big payload corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFIFOOrder: messages between one pair keep order.
func TestFIFOOrder(t *testing.T) {
	eps := localWorld(t, 2)
	const k = 100
	err := runAll(eps, func(ep *Endpoint) error {
		if ep.Rank() == 0 {
			for i := 0; i < k; i++ {
				if err := ep.Send(1, transport.Tag(i), []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		buf := make([]byte, 1)
		for i := 0; i < k; i++ {
			if _, err := ep.Recv(0, transport.Tag(i), buf); err != nil {
				return err
			}
			if buf[0] != byte(i) {
				return fmt.Errorf("message %d out of order: %d", i, buf[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTagMismatchAndTruncate: protocol violations are reported.
func TestTagMismatchAndTruncate(t *testing.T) {
	eps := localWorld(t, 2)
	err := runAll(eps, func(ep *Endpoint) error {
		switch ep.Rank() {
		case 0:
			if err := ep.Send(1, 1, []byte{1, 2, 3}); err != nil {
				return err
			}
			return ep.Send(1, 2, []byte{1, 2, 3})
		default:
			if _, err := ep.Recv(0, 99, make([]byte, 3)); !errors.Is(err, transport.ErrTagMismatch) {
				return fmt.Errorf("want tag mismatch, got %v", err)
			}
			if _, err := ep.Recv(0, 2, make([]byte, 1)); !errors.Is(err, transport.ErrTruncate) {
				return fmt.Errorf("want truncate, got %v", err)
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSelfMessages: loopback path.
func TestSelfMessages(t *testing.T) {
	eps := localWorld(t, 1)
	ep := eps[0]
	if err := ep.Send(0, 3, []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if n, err := ep.Recv(0, 3, buf); err != nil || n != 2 || buf[0] != 9 {
		t.Fatalf("loopback: n=%d err=%v", n, err)
	}
}

// TestRingSendRecv: a full ring of simultaneous exchanges does not
// deadlock over sockets.
func TestRingSendRecv(t *testing.T) {
	const p = 8
	eps := localWorld(t, p)
	err := runAll(eps, func(ep *Endpoint) error {
		me := ep.Rank()
		sb := []byte{byte(me)}
		rb := make([]byte, 1)
		if _, err := ep.SendRecv((me+1)%p, 5, sb, (me+p-1)%p, 5, rb); err != nil {
			return err
		}
		if rb[0] != byte((me+p-1)%p) {
			return fmt.Errorf("got %d", rb[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPeerDeath: closing one endpoint surfaces errors at its peers
// instead of hanging them (failure injection).
func TestPeerDeath(t *testing.T) {
	eps := localWorld(t, 2)
	eps[1].Close()
	buf := make([]byte, 4)
	if _, err := eps[0].Recv(1, 1, buf); err == nil {
		t.Fatal("receive from dead peer succeeded")
	}
}

// TestCollectivesOverTCP: the full collective stack runs over sockets —
// the library is transport-independent (§11).
func TestCollectivesOverTCP(t *testing.T) {
	const p = 6
	eps := localWorld(t, p)
	shape := model.MSTShape(group.Linear(p))
	long := model.BucketShape(group.Linear(p))
	err := runAll(eps, func(ep *Endpoint) error {
		c := core.NewCtx(ep, 1)
		buf := make([]byte, 100)
		if ep.Rank() == 0 {
			for i := range buf {
				buf[i] = byte(i)
			}
		}
		if err := c.Run(core.Buffers{Buf: buf})(core.BuildBcast(c, shape, 0, 100, 1)); err != nil {
			return err
		}
		for i := range buf {
			if buf[i] != byte(i) {
				return fmt.Errorf("bcast corrupt at %d", i)
			}
		}
		in := make([]int64, 5)
		for i := range in {
			in[i] = int64(ep.Rank() + i)
		}
		ab := make([]byte, 40)
		tb := make([]byte, 40)
		datatype.PutInt64s(ab, in)
		c2 := core.NewCtx(ep, 2)
		if err := c2.Run(core.Buffers{Buf: ab, Tmp: tb})(core.BuildAllReduce(c2, long, 5, datatype.Int64, datatype.Sum)); err != nil {
			return err
		}
		got := datatype.Int64s(ab)
		for i := range got {
			var want int64
			for r := 0; r < p; r++ {
				want += int64(r + i)
			}
			if got[i] != want {
				return fmt.Errorf("allreduce elem %d = %d, want %d", i, got[i], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
