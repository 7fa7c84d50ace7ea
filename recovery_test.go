// Acceptance suite for survivor recovery: after a fail-stop the
// survivors Agree on the failed set, Shrink to a successor communicator
// that runs every collective, and — on the TCP transport — readmit a
// killed-and-restarted rank. The suites cover all three transports,
// fail-stop injected both before and during the agreement itself, typed
// abort attribution, stale-epoch fencing of pre-shrink communicators,
// a kill → shrink → keep-computing soak under seeded faults, and full
// TCP rejoin with state sync; every run is leak-checked.
package icc_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	icc "repro"
	"repro/internal/chantransport"
	"repro/internal/datatype"
	"repro/internal/faultnet"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/simnet"
	"repro/internal/tcptransport"
)

const (
	recP       = 5
	recVictim  = 2
	recCount   = 17
	recTimeout = 2 * time.Second
)

var recTransports = []string{"chan", "tcp", "simnet"}

// recSum is the expected all-reduce output when every rank of a
// size-rank group contributes confInt64s(rank, count, salt).
func recSum(size, count, salt int) []byte {
	vals := make([]int64, count)
	for i := range vals {
		for r := 0; r < size; r++ {
			vals[i] += int64(r*1009 + i*31 + salt)
		}
	}
	buf := make([]byte, count*8)
	datatype.PutInt64s(buf, vals)
	return buf
}

// runRecovery runs body once per rank over the named transport with every
// endpoint wrapped by inj, using the short recovery-test receive timeout
// (the failure detector the agreement's restarts lean on).
func runRecovery(t *testing.T, transportName string, inj *faultnet.Injector, body func(c *icc.Comm) error) []error {
	t.Helper()
	errs := make([]error, recP)
	switch transportName {
	case "chan":
		w, err := chantransport.NewWorld(recP, chantransport.WithRecvTimeout(recTimeout))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(ep *chantransport.Endpoint) error {
			c, nerr := icc.New(inj.Wrap(ep))
			if nerr != nil {
				return nerr
			}
			errs[ep.Rank()] = body(c)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	case "tcp":
		eps, err := tcptransport.NewLocalWorld(recP, tcptransport.WithRecvTimeout(recTimeout))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for r := 0; r < recP; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				defer eps[r].Close()
				c, nerr := icc.New(inj.Wrap(eps[r]))
				if nerr != nil {
					errs[r] = nerr
					return
				}
				errs[r] = body(c)
			}(r)
		}
		wg.Wait()
	case "simnet":
		if _, err := simnet.Run(simnet.Config{
			Rows: 1, Cols: recP, Machine: model.ParagonLike(), CarryData: true,
		}, func(ep *simnet.Endpoint) error {
			c, nerr := icc.New(inj.Wrap(ep))
			if nerr != nil {
				return nerr
			}
			errs[ep.Rank()] = body(c)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown transport %q", transportName)
	}
	return errs
}

// TestRecoveryTypedAbortError: every survivor of a fail-stop observes a
// typed *icc.AbortError via errors.As — carrying the dying rank as both
// origin and member of the failed set — on all three transports.
func TestRecoveryTypedAbortError(t *testing.T) {
	leak := harness.StartLeakCheck()
	for _, tr := range recTransports {
		tr := tr
		t.Run(tr, func(t *testing.T) {
			inj := faultnet.New(faultnet.Config{FailStop: map[int]int{recVictim: 0}})
			errs := runRecovery(t, tr, inj, func(c *icc.Comm) error {
				send := make([]byte, recCount*8)
				recv := make([]byte, recCount*8)
				return c.AllReduce(send, recv, recCount, icc.Int64, icc.Sum)
			})
			if errs[recVictim] == nil || !errors.Is(errs[recVictim], faultnet.ErrInjected) {
				t.Errorf("victim error = %v, want ErrInjected", errs[recVictim])
			}
			for r, err := range errs {
				if r == recVictim {
					continue
				}
				var ae *icc.AbortError
				if !errors.As(err, &ae) {
					t.Errorf("rank %d error %v does not carry *icc.AbortError", r, err)
					continue
				}
				if ae.Origin != recVictim {
					t.Errorf("rank %d abort origin = %d, want %d", r, ae.Origin, recVictim)
				}
				found := false
				for _, f := range ae.Failed {
					if f == recVictim {
						found = true
					}
				}
				if !found {
					t.Errorf("rank %d abort failed set %v misses victim %d", r, ae.Failed, recVictim)
				}
			}
		})
	}
	leak.Verify(t)
}

// recShrinkBody is the survivor program of the shrink acceptance test:
// fail the first all-reduce, Shrink, prove the old communicator is
// fenced, then run the full 13-collective conformance program plus the
// non-blocking and persistent paths on the successor.
func recShrinkBody(c *icc.Comm, outs [][][]byte, mems [][]int, epochs []int, staleErrs [][]error) error {
	send := confInt64s(c.Rank(), recCount, 3)
	recv := make([]byte, recCount*8)
	err := c.AllReduce(send, recv, recCount, icc.Int64, icc.Sum)
	if err == nil {
		return errors.New("first all-reduce unexpectedly succeeded")
	}
	if errors.Is(err, faultnet.ErrInjected) {
		return err // this rank is the victim
	}
	s, serr := c.Shrink()
	if serr != nil {
		return serr
	}
	world := c.Rank()
	mems[world] = s.Members()
	epochs[world] = s.Epoch()
	// The pre-shrink communicator must refuse every path with
	// ErrStaleEpoch: all sixteen blocking entry points (whatever their
	// arguments: the epoch fence comes first), non-blocking, persistent.
	counts := make([]int, c.Size())
	_, ierr := c.IAllReduce(send, recv, recCount, icc.Int64, icc.Sum)
	_, perr := c.AllReduceInit(send, recv, recCount, icc.Int64, icc.Sum)
	staleErrs[world] = []error{
		c.Bcast(send, recCount, icc.Int64, 0),
		c.Reduce(send, recv, recCount, icc.Int64, icc.Sum, 0),
		c.AllReduce(send, recv, recCount, icc.Int64, icc.Sum),
		c.Scatter(send, recv, 0, icc.Int64, 0),
		c.Scatterv(send, counts, recv, icc.Int64, 0),
		c.Gather(send, recv, 0, icc.Int64, 0),
		c.Gatherv(send, counts, recv, icc.Int64, 0),
		c.Collect(send, recv, 0, icc.Int64),
		c.Collectv(send, counts, recv, icc.Int64),
		c.ReduceScatter(send, counts, recv, icc.Int64, icc.Sum),
		c.AllToAll(send, recv, 0, icc.Int64),
		c.AllToAllv(send, counts, recv, counts, icc.Int64),
		c.Barrier(),
		c.BcastPipelined(send, recCount, icc.Int64, 0, 0),
		c.BcastEDST(send, recCount, icc.Int64, 0),
		c.AllReduceHypercube(send, recv, recCount, icc.Int64, icc.Sum),
		ierr,
		perr,
	}
	// Full conformance on the successor.
	if err := runConfProgram(s, recCount, outs); err != nil {
		return fmt.Errorf("post-shrink conformance: %w", err)
	}
	// Non-blocking and persistent all-reduce on the successor must agree
	// with the blocking result.
	blk := make([]byte, recCount*8)
	if err := s.AllReduce(send, blk, recCount, icc.Int64, icc.Sum); err != nil {
		return err
	}
	nb := make([]byte, recCount*8)
	req, err := s.IAllReduce(send, nb, recCount, icc.Int64, icc.Sum)
	if err != nil {
		return err
	}
	if err := req.Wait(); err != nil {
		return err
	}
	pr := make([]byte, recCount*8)
	h, err := s.AllReduceInit(send, pr, recCount, icc.Int64, icc.Sum)
	if err != nil {
		return err
	}
	defer h.Free()
	if err := h.Start(); err != nil {
		return err
	}
	if err := h.Wait(); err != nil {
		return err
	}
	if !bytes.Equal(blk, nb) || !bytes.Equal(blk, pr) {
		return errors.New("post-shrink non-blocking/persistent all-reduce disagrees with blocking")
	}
	return nil
}

// TestShrinkAfterFailStop: the tentpole acceptance matrix. A rank
// fail-stops, the survivors Shrink, and the successor communicator must
// be indistinguishable from a freshly built world of the surviving size:
// all 13 collectives produce bitwise-identical results, the non-blocking
// and persistent paths work, the old communicator fails with
// ErrStaleEpoch, and nothing leaks.
func TestShrinkAfterFailStop(t *testing.T) {
	ref := confChan(t, recP-1, recCount)
	leak := harness.StartLeakCheck()
	for _, tr := range recTransports {
		tr := tr
		t.Run(tr, func(t *testing.T) {
			inj := faultnet.New(faultnet.Config{FailStop: map[int]int{recVictim: 0}})
			outs := newConfOuts(recP-1, recCount)
			mems := make([][]int, recP)
			epochs := make([]int, recP)
			staleErrs := make([][]error, recP)
			errs := runRecovery(t, tr, inj, func(c *icc.Comm) error {
				return recShrinkBody(c, outs, mems, epochs, staleErrs)
			})
			wantMembers := []int{0, 1, 3, 4}
			for r := 0; r < recP; r++ {
				if r == recVictim {
					if errs[r] == nil || !errors.Is(errs[r], faultnet.ErrInjected) {
						t.Errorf("victim error = %v, want ErrInjected", errs[r])
					}
					continue
				}
				if errs[r] != nil {
					t.Errorf("survivor %d: %v", r, errs[r])
					continue
				}
				if fmt.Sprint(mems[r]) != fmt.Sprint(wantMembers) {
					t.Errorf("survivor %d members = %v, want %v", r, mems[r], wantMembers)
				}
				if epochs[r] != 1 {
					t.Errorf("survivor %d epoch = %d, want 1", r, epochs[r])
				}
				for i, serr := range staleErrs[r] {
					if serr == nil || !errors.Is(serr, icc.ErrStaleEpoch) {
						t.Errorf("survivor %d stale path %d error = %v, want ErrStaleEpoch", r, i, serr)
					}
				}
			}
			cases := conformanceCases(recP-1, recCount)
			for r := 0; r < recP-1; r++ {
				for ci, cc := range cases {
					if !bytes.Equal(ref[r][ci], outs[r][ci]) {
						t.Errorf("%s: shrunken %s rank %d: %x != fresh world %x",
							tr, cc.name, r, outs[r][ci], ref[r][ci])
					}
				}
			}
		})
	}
	leak.Verify(t)
}

// TestShrinkDuringAgreement: the hard case — the victim fail-stops at its
// very first operation of the recovery protocol itself (a healthy-world
// proactive Shrink), so the agreement must restart around a rank that
// died mid-protocol. Every survivor must still converge on the same
// decision and the successor must compute correctly.
func TestShrinkDuringAgreement(t *testing.T) {
	leak := harness.StartLeakCheck()
	for _, tr := range recTransports {
		tr := tr
		t.Run(tr, func(t *testing.T) {
			inj := faultnet.New(faultnet.Config{FailStop: map[int]int{recVictim: 0}})
			mems := make([][]int, recP)
			errs := runRecovery(t, tr, inj, func(c *icc.Comm) error {
				s, err := c.Shrink()
				if err != nil {
					return err
				}
				mems[c.Rank()] = s.Members()
				send := confInt64s(s.Rank(), recCount, 5)
				recv := make([]byte, recCount*8)
				if err := s.AllReduce(send, recv, recCount, icc.Int64, icc.Sum); err != nil {
					return err
				}
				if !bytes.Equal(recv, recSum(s.Size(), recCount, 5)) {
					return errors.New("post-shrink all-reduce value wrong")
				}
				return nil
			})
			wantMembers := []int{0, 1, 3, 4}
			for r := 0; r < recP; r++ {
				if r == recVictim {
					if errs[r] == nil || !errors.Is(errs[r], faultnet.ErrInjected) {
						t.Errorf("victim error = %v, want ErrInjected", errs[r])
					}
					continue
				}
				if errs[r] != nil {
					t.Errorf("survivor %d: %v", r, errs[r])
					continue
				}
				if fmt.Sprint(mems[r]) != fmt.Sprint(wantMembers) {
					t.Errorf("survivor %d members = %v, want %v", r, mems[r], wantMembers)
				}
			}
		})
	}
	leak.Verify(t)
}

// recSoakVictims schedules two fail-stops at staggered operation indices,
// so the second death lands after the first recovery — possibly inside
// a collective of the shrunken world, possibly inside a recovery.
var recSoakVictims = map[int]int{1: 25, 3: 80}

// recSoakBody keeps computing through failures: mixed collectives with
// value checks, Shrink whenever the world aborts, stop when dead or
// alone. Because an abort lands asynchronously, survivors reach the
// shrink at different iterations (one fails inside iteration k, another
// inside k+1); after every shrink they agree on the iteration to resume
// from with a max-reduction — the canonical post-recovery control-flow
// resynchronization — so nobody runs a bcast against a peer's barrier.
func recSoakBody(c *icc.Comm) error {
	cur := c
	sync := false
	for it := 0; it < 40; {
		var err error
		if sync {
			one := make([]byte, 8)
			datatype.PutInt64s(one, []int64{int64(it)})
			agreed := make([]byte, 8)
			err = cur.AllReduce(one, agreed, 1, icc.Int64, icc.Max)
			if err == nil {
				it = int(datatype.Int64s(agreed)[0])
				sync = false
				continue
			}
		} else {
			switch it % 3 {
			case 0:
				send := confInt64s(cur.Rank(), 8, it)
				recv := make([]byte, 8*8)
				err = cur.AllReduce(send, recv, 8, icc.Int64, icc.Sum)
				if err == nil && !bytes.Equal(recv, recSum(cur.Size(), 8, it)) {
					return fmt.Errorf("soak iteration %d: all-reduce value wrong", it)
				}
			case 1:
				buf := make([]byte, 8*8)
				if cur.Rank() == 0 {
					copy(buf, confInt64s(0, 8, it))
				}
				err = cur.Bcast(buf, 8, icc.Int64, 0)
				if err == nil && !bytes.Equal(buf, confInt64s(0, 8, it)) {
					return fmt.Errorf("soak iteration %d: bcast value wrong", it)
				}
			case 2:
				err = cur.Barrier()
			}
			if err == nil {
				it++
				continue
			}
		}
		if errors.Is(err, faultnet.ErrInjected) {
			return err // this rank just died
		}
		s, serr := cur.Shrink()
		if serr != nil {
			return serr // includes ErrExpelled
		}
		cur = s
		sync = true
		if cur.Size() < 2 {
			return nil
		}
	}
	return nil
}

// TestRecoverySoak: kill → shrink → keep computing, twice, under seeded
// faults, on all three transports, leak-checked. The survivors must end
// with no errors and correct values on every successful collective.
func TestRecoverySoak(t *testing.T) {
	leak := harness.StartLeakCheck()
	for _, tr := range recTransports {
		tr := tr
		t.Run(tr, func(t *testing.T) {
			inj := faultnet.New(faultnet.Config{FailStop: recSoakVictims})
			errs := runRecovery(t, tr, inj, recSoakBody)
			for r := 0; r < recP; r++ {
				if _, dies := recSoakVictims[r]; dies {
					if errs[r] == nil || !errors.Is(errs[r], faultnet.ErrInjected) {
						t.Errorf("victim %d error = %v, want ErrInjected", r, errs[r])
					}
					continue
				}
				if errs[r] != nil {
					t.Errorf("survivor %d: %v", r, errs[r])
				}
			}
		})
	}
	leak.Verify(t)
}

// TestRejoinTCP: the full kill → restart → rejoin cycle on the real TCP
// transport. A rank is killed abruptly; the survivors abort, Shrink, and
// keep computing; the killed rank restarts on its old address, rejoins at
// the transport level, and is readmitted at the next epoch boundary with
// the survivors' calibration profile state-synced; the restored world
// computes across all four ranks again.
func TestRejoinTCP(t *testing.T) {
	const p = 4
	const victim = 2
	leak := harness.StartLeakCheck()
	mach := model.Machine{Alpha: 70e-6, Beta: 0.4e-6, Gamma: 0.07e-6, LinkExcess: 2, StepOverhead: 4e-6}
	opts := []tcptransport.Option{
		tcptransport.WithRecvTimeout(3 * time.Second),
		tcptransport.WithHealWindow(time.Second),
	}
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := range lns {
		ln, err := tcptransport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	eps := make([]*tcptransport.Endpoint, p)
	{
		var wg sync.WaitGroup
		connErrs := make([]error, p)
		for i := 0; i < p; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				eps[i], connErrs[i] = tcptransport.Connect(i, lns[i], addrs, opts...)
			}(i)
		}
		wg.Wait()
		for i, err := range connErrs {
			if err != nil {
				t.Fatalf("connect rank %d: %v", i, err)
			}
		}
	}

	killed := make(chan struct{})
	errs := make([]error, p)
	var wg sync.WaitGroup

	allReduce := func(c *icc.Comm, salt int) error {
		send := confInt64s(c.Rank(), recCount, salt)
		recv := make([]byte, recCount*8)
		if err := c.AllReduce(send, recv, recCount, icc.Int64, icc.Sum); err != nil {
			return err
		}
		if !bytes.Equal(recv, recSum(c.Size(), recCount, salt)) {
			return fmt.Errorf("all-reduce value wrong at size %d", c.Size())
		}
		return nil
	}

	// The victim: compute, die abruptly, restart on the old address,
	// rejoin, compute again.
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[victim] = func() error {
			c, err := icc.New(eps[victim], icc.WithMachine(mach))
			if err != nil {
				return err
			}
			if err := allReduce(c, 1); err != nil {
				return err
			}
			eps[victim].Kill()
			close(killed)
			// Restart: bind the old address again (retry briefly — the
			// kill releases it asynchronously) and rejoin the world.
			var ln net.Listener
			deadline := time.Now().Add(5 * time.Second)
			for {
				ln, err = tcptransport.Listen(addrs[victim])
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("rebind %s: %w", addrs[victim], err)
				}
				time.Sleep(20 * time.Millisecond)
			}
			ep, err := tcptransport.Rejoin(victim, ln, addrs, opts...)
			if err != nil {
				return err
			}
			defer ep.Close()
			c2, err := icc.Join(ep, 0)
			if err != nil {
				return err
			}
			if got := c2.MachineModel(); got != mach {
				return fmt.Errorf("state-synced machine = %+v, want %+v", got, mach)
			}
			return allReduce(c2, 2)
		}()
	}()

	// The survivors: compute, watch the victim die, Shrink, compute,
	// readmit the restarted victim, compute at full size again.
	for r := 0; r < p; r++ {
		if r == victim {
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer eps[r].Close()
			errs[r] = func() error {
				c, err := icc.New(eps[r], icc.WithMachine(mach))
				if err != nil {
					return err
				}
				if err := allReduce(c, 1); err != nil {
					return err
				}
				<-killed
				// The next collective meets the dead rank: it must fail
				// within the heal window + timeout, then the world shrinks.
				if err := allReduce(c, 7); err == nil {
					return errors.New("all-reduce with a killed rank unexpectedly succeeded")
				}
				s, err := c.Shrink()
				if err != nil {
					return fmt.Errorf("shrink: %w", err)
				}
				if s.Size() != p-1 {
					return fmt.Errorf("shrunk size = %d, want %d", s.Size(), p-1)
				}
				if err := allReduce(s, 9); err != nil {
					return fmt.Errorf("post-shrink all-reduce: %w", err)
				}
				c2, err := s.Readmit(victim)
				if err != nil {
					return fmt.Errorf("readmit: %w", err)
				}
				if c2.Size() != p {
					return fmt.Errorf("readmitted size = %d, want %d", c2.Size(), p)
				}
				return allReduce(c2, 2)
			}()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	leak.Verify(t)
}
