package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chantransport"
	"repro/internal/datatype"
	"repro/internal/faultnet"
	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/transport"
)

// Fault injection via the faultnet chaos harness: collectives under
// injected faults must propagate the error to every rank in bounded time
// (the failing step's abort broadcast), never corrupt surviving data, and
// never hang.

// TestSendFailurePropagates: for every failure point in an all-reduce,
// some rank observes an error and no rank hangs. The receive timeout is
// generous relative to the wall-clock bound, so it is the abort
// broadcast, not the timeout, that unblocks the survivors.
func TestSendFailurePropagates(t *testing.T) {
	const p, count = 6, 32
	shapes := []model.Shape{
		model.MSTShape(group.Linear(p)),
		model.BucketShape(group.Linear(p)),
	}
	for _, s := range shapes {
		for budget := int64(0); budget < 10; budget += 3 {
			s, budget := s, budget
			t.Run(fmt.Sprintf("%v/budget%d", s, budget), func(t *testing.T) {
				w, werr := chantransport.NewWorld(p, chantransport.WithRecvTimeout(10*time.Second))
				if werr != nil {
					t.Fatal(werr)
				}
				inj := faultnet.New(faultnet.Config{SendBudget: faultnet.Limit(budget)})
				errs := make(chan error, p)
				done := make(chan struct{})
				start := time.Now()
				go func() {
					defer close(done)
					_ = w.Run(func(ep *chantransport.Endpoint) error {
						c := Ctx{EP: inj.Wrap(ep), Members: group.Identity(p), Me: ep.Rank(), Coll: 1}
						buf := make([]byte, count)
						tmp := make([]byte, count)
						errs <- c.Run(Buffers{Buf: buf, Tmp: tmp})(BuildAllReduce(c, s, count, datatype.Uint8, datatype.Sum))
						return nil
					})
				}()
				select {
				case <-done:
				case <-time.After(20 * time.Second):
					t.Fatal("collective hung despite abort propagation")
				}
				if elapsed := time.Since(start); elapsed > 5*time.Second {
					t.Fatalf("collective took %v to fail; abort propagation should beat the 10s receive timeout", elapsed)
				}
				close(errs)
				sawError := false
				for err := range errs {
					if err != nil {
						sawError = true
					}
				}
				if !sawError {
					t.Fatal("all ranks succeeded despite injected failures")
				}
			})
		}
	}
}

// TestZeroBudgetEverythingFails: with no send budget at all, every rank
// that must communicate reports an error.
func TestZeroBudgetEverythingFails(t *testing.T) {
	const p = 4
	w, werr := chantransport.NewWorld(p, chantransport.WithRecvTimeout(10*time.Second))
	if werr != nil {
		t.Fatal(werr)
	}
	inj := faultnet.New(faultnet.Config{SendBudget: faultnet.Limit(0)})
	s := model.MSTShape(group.Linear(p))
	err := w.Run(func(ep *chantransport.Endpoint) error {
		c := Ctx{EP: inj.Wrap(ep), Members: group.Identity(p), Me: ep.Rank(), Coll: 1}
		if err := c.Run(Buffers{Buf: make([]byte, 8)})(BuildBcast(c, s, 0, 8, 1)); err == nil {
			return fmt.Errorf("rank %d broadcast succeeded with zero budget", ep.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFailStopAbortsPeers: one rank fail-stops at its first operation of
// a ring all-reduce; every survivor must return an error wrapping both
// ErrPeerFailed and ErrAborted (the dying rank's abort broadcast), well
// before the receive timeout.
func TestFailStopAbortsPeers(t *testing.T) {
	const p, count, victim = 6, 64, 2
	for _, k := range []int{0, 1, 3} {
		k := k
		t.Run(fmt.Sprintf("failAtOp%d", k), func(t *testing.T) {
			w, werr := chantransport.NewWorld(p, chantransport.WithRecvTimeout(30*time.Second))
			if werr != nil {
				t.Fatal(werr)
			}
			inj := faultnet.New(faultnet.Config{FailStop: map[int]int{victim: k}})
			s := model.BucketShape(group.Linear(p))
			rankErrs := make([]error, p)
			start := time.Now()
			_ = w.Run(func(ep *chantransport.Endpoint) error {
				c := Ctx{EP: inj.Wrap(ep), Members: group.Identity(p), Me: ep.Rank(), Coll: 1}
				buf := make([]byte, count)
				tmp := make([]byte, count)
				rankErrs[ep.Rank()] = c.Run(Buffers{Buf: buf, Tmp: tmp})(BuildAllReduce(c, s, count, datatype.Uint8, datatype.Sum))
				return nil
			})
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("survivors took %v to unblock; the abort broadcast should beat the 30s timeout", elapsed)
			}
			if rankErrs[victim] == nil || !errors.Is(rankErrs[victim], faultnet.ErrInjected) {
				t.Fatalf("victim error = %v, want injected fail-stop", rankErrs[victim])
			}
			for r, err := range rankErrs {
				if r == victim {
					continue
				}
				if err == nil {
					t.Fatalf("rank %d succeeded despite rank %d fail-stopping at op %d (ring dependency)", r, victim, k)
				}
				if !errors.Is(err, transport.ErrPeerFailed) || !errors.Is(err, transport.ErrAborted) {
					t.Fatalf("rank %d error %v does not wrap ErrPeerFailed and ErrAborted", r, err)
				}
			}
		})
	}
}

// TestFailStopAbortsPlanReplay: the same no-hang guarantee on the plan
// replay path (what persistent and non-blocking collectives execute): a
// fail-stop during Plan.Execute aborts every survivor's replay.
func TestFailStopAbortsPlanReplay(t *testing.T) {
	const p, count, victim = 5, 48, 1
	w, werr := chantransport.NewWorld(p, chantransport.WithRecvTimeout(30*time.Second))
	if werr != nil {
		t.Fatal(werr)
	}
	// Plan recording never touches the transport, so the armed fail-stop
	// fires exactly at the victim's first replayed operation.
	inj := faultnet.New(faultnet.Config{FailStop: map[int]int{victim: 0}})
	s := model.BucketShape(group.Linear(p))
	rankErrs := make([]error, p)
	start := time.Now()
	_ = w.Run(func(ep *chantransport.Endpoint) error {
		f := inj.Wrap(ep)
		c := Ctx{EP: f, Members: group.Identity(p), Me: ep.Rank(), Coll: 1}
		pl, err := BuildAllReduce(c, s, count, datatype.Uint8, datatype.Sum)
		if err != nil {
			rankErrs[ep.Rank()] = err
			return nil
		}
		bs := Buffers{Buf: make([]byte, pl.BufLen), Tmp: make([]byte, pl.TmpLen), Scratch: make([]byte, pl.ScratchLen)}
		rankErrs[ep.Rank()] = pl.Execute(f, nil, bs)
		return nil
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("plan replay took %v to fail; abort should beat the 30s timeout", elapsed)
	}
	if rankErrs[victim] == nil || !errors.Is(rankErrs[victim], faultnet.ErrInjected) {
		t.Fatalf("victim error = %v, want injected fail-stop", rankErrs[victim])
	}
	for r, err := range rankErrs {
		if r == victim {
			continue
		}
		if err == nil {
			t.Fatalf("rank %d completed the replay despite rank %d fail-stopping at op 0", r, victim)
		}
		if !errors.Is(err, transport.ErrPeerFailed) {
			t.Fatalf("rank %d error %v does not wrap ErrPeerFailed", r, err)
		}
	}
}

// TestDisarmedInjectorIsTransparent: a disarmed schedule must not perturb
// results — the warm-up idiom chaos tests rely on.
func TestDisarmedInjectorIsTransparent(t *testing.T) {
	const p, count = 4, 16
	w, werr := chantransport.NewWorld(p, chantransport.WithRecvTimeout(10*time.Second))
	if werr != nil {
		t.Fatal(werr)
	}
	inj := faultnet.New(faultnet.Config{FailStop: map[int]int{0: 0}, DropRate: 1})
	inj.SetArmed(false)
	s := model.BucketShape(group.Linear(p))
	err := w.Run(func(ep *chantransport.Endpoint) error {
		c := Ctx{EP: inj.Wrap(ep), Members: group.Identity(p), Me: ep.Rank(), Coll: 1}
		buf := make([]byte, count)
		tmp := make([]byte, count)
		for i := range buf {
			buf[i] = 1
		}
		if err := c.Run(Buffers{Buf: buf, Tmp: tmp})(BuildAllReduce(c, s, count, datatype.Uint8, datatype.Sum)); err != nil {
			return err
		}
		for i, v := range buf {
			if v != p {
				return fmt.Errorf("rank %d: buf[%d] = %d, want %d", ep.Rank(), i, v, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if inj.Injected() != 0 {
		t.Fatalf("disarmed injector injected %d faults", inj.Injected())
	}
}
