// Tests for the persistent and non-blocking collective APIs: plan-once
// semantics (the planner runs exactly once no matter how many Starts),
// result equivalence with the blocking calls, request ordering, and
// progress-goroutine hygiene (no leaked goroutines once requests drain).
package icc_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	icc "repro"
	"repro/internal/datatype"
)

// TestPersistentAllReducePlannerOnce: AllReduceInit + Start×N runs shape
// enumeration exactly once, replays correctly with fresh inputs every
// iteration, and the plan cache records one miss then only hits.
func TestPersistentAllReducePlannerOnce(t *testing.T) {
	const p, count, iters = 4, 32, 10
	w := icc.NewChannelWorld(p)
	if err := w.Run(func(c *icc.Comm) error {
		send := make([]byte, count*8)
		recv := make([]byte, count*8)
		h, err := c.AllReduceInit(send, recv, count, icc.Int64, icc.Sum)
		if err != nil {
			return err
		}
		defer h.Free()
		for it := 0; it < iters; it++ {
			in := make([]int64, count)
			for i := range in {
				in[i] = int64(c.Rank()*100 + i + it*7)
			}
			datatype.PutInt64s(send, in)
			if err := h.Start(); err != nil {
				return err
			}
			if err := h.Wait(); err != nil {
				return err
			}
			got := datatype.Int64s(recv)
			for i := range got {
				want := int64(p*(i+it*7) + 100*p*(p-1)/2)
				if got[i] != want {
					return fmt.Errorf("rank %d iter %d: elem %d = %d, want %d", c.Rank(), it, i, got[i], want)
				}
			}
		}
		if calls := c.PlannerCalls(); calls != 1 {
			return fmt.Errorf("rank %d: planner ran %d times, want exactly 1", c.Rank(), calls)
		}
		st := c.PlanCacheStats()
		if st.Entries != 1 || st.Misses != 1 || st.Hits != 0 {
			return fmt.Errorf("rank %d: cache stats %+v after one Init", c.Rank(), st)
		}
		// A second handle with the same signature reuses the cached plan.
		h2, err := c.AllReduceInit(send, recv, count, icc.Int64, icc.Sum)
		if err != nil {
			return err
		}
		h2.Free()
		if st := c.PlanCacheStats(); st.Hits != 1 || st.Misses != 1 {
			return fmt.Errorf("rank %d: cache stats %+v after second Init", c.Rank(), st)
		}
		if calls := c.PlannerCalls(); calls != 1 {
			return fmt.Errorf("rank %d: planner ran %d times after second Init", c.Rank(), calls)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPersistentMatchesBlocking: every persistent collective produces
// bitwise the same per-rank result as its blocking counterpart.
func TestPersistentMatchesBlocking(t *testing.T) {
	for _, p := range []int{1, 3, 5, 8} {
		p := p
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			const count = 6
			root := p / 2
			w := icc.NewChannelWorld(p)
			if err := w.Run(func(c *icc.Comm) error {
				me := c.Rank()
				seg := count * 8
				total := seg * p

				// Bcast.
				bBuf := make([]byte, seg)
				pBuf := make([]byte, seg)
				if me == root {
					copy(bBuf, confInt64s(root, count, 21))
					copy(pBuf, bBuf)
				}
				if err := c.Bcast(bBuf, count, icc.Int64, root); err != nil {
					return err
				}
				h, err := c.BcastInit(pBuf, count, icc.Int64, root)
				if err != nil {
					return err
				}
				if err := startWait(h); err != nil {
					return err
				}
				if !bytes.Equal(pBuf, bBuf) {
					return fmt.Errorf("rank %d: persistent bcast differs", me)
				}

				// Reduce.
				send := confInt64s(me, count, 22)
				bR := make([]byte, seg)
				pR := make([]byte, seg)
				if err := c.Reduce(send, bR, count, icc.Int64, icc.Sum, root); err != nil {
					return err
				}
				h, err = c.ReduceInit(send, pR, count, icc.Int64, icc.Sum, root)
				if err != nil {
					return err
				}
				if err := startWait(h); err != nil {
					return err
				}
				if me == root && !bytes.Equal(pR, bR) {
					return fmt.Errorf("rank %d: persistent reduce differs", me)
				}

				// AllReduce.
				sendF := confFloat64s(me, count, 23)
				bA := make([]byte, seg)
				pA := make([]byte, seg)
				if err := c.AllReduce(sendF, bA, count, icc.Float64, icc.Max); err != nil {
					return err
				}
				h, err = c.AllReduceInit(sendF, pA, count, icc.Float64, icc.Max)
				if err != nil {
					return err
				}
				if err := startWait(h); err != nil {
					return err
				}
				if !bytes.Equal(pA, bA) {
					return fmt.Errorf("rank %d: persistent all-reduce differs", me)
				}

				// Scatter.
				var sSend []byte
				if me == root {
					sSend = confInt64s(root, count*p, 24)
				}
				bS := make([]byte, seg)
				pS := make([]byte, seg)
				if err := c.Scatter(sSend, bS, count, icc.Int64, root); err != nil {
					return err
				}
				h, err = c.ScatterInit(sSend, pS, count, icc.Int64, root)
				if err != nil {
					return err
				}
				if err := startWait(h); err != nil {
					return err
				}
				if !bytes.Equal(pS, bS) {
					return fmt.Errorf("rank %d: persistent scatter differs", me)
				}

				// Gather.
				gSend := confInt64s(me, count, 25)
				bG := make([]byte, total)
				pG := make([]byte, total)
				if err := c.Gather(gSend, bG, count, icc.Int64, root); err != nil {
					return err
				}
				h, err = c.GatherInit(gSend, pG, count, icc.Int64, root)
				if err != nil {
					return err
				}
				if err := startWait(h); err != nil {
					return err
				}
				if me == root && !bytes.Equal(pG, bG) {
					return fmt.Errorf("rank %d: persistent gather differs", me)
				}

				// Collect.
				cSend := confInt64s(me, count, 26)
				bC := make([]byte, total)
				pC := make([]byte, total)
				if err := c.Collect(cSend, bC, count, icc.Int64); err != nil {
					return err
				}
				h, err = c.CollectInit(cSend, pC, count, icc.Int64)
				if err != nil {
					return err
				}
				if err := startWait(h); err != nil {
					return err
				}
				if !bytes.Equal(pC, bC) {
					return fmt.Errorf("rank %d: persistent collect differs", me)
				}

				// AllToAll.
				aSend := confInt64s(me, count*p, 27)
				bX := make([]byte, total)
				pX := make([]byte, total)
				if err := c.AllToAll(aSend, bX, count, icc.Int64); err != nil {
					return err
				}
				h, err = c.AllToAllInit(aSend, pX, count, icc.Int64)
				if err != nil {
					return err
				}
				if err := startWait(h); err != nil {
					return err
				}
				if !bytes.Equal(pX, bX) {
					return fmt.Errorf("rank %d: persistent all-to-all differs", me)
				}

				// Barrier.
				h, err = c.BarrierInit()
				if err != nil {
					return err
				}
				return startWait(h)
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func startWait(h *icc.Persistent) error {
	if err := h.Start(); err != nil {
		return err
	}
	return h.Wait()
}

// TestPersistentHier: persistent collectives through the hierarchical
// two-level composition (forced with AlgHier on a clustered communicator)
// match their blocking counterparts.
func TestPersistentHier(t *testing.T) {
	const p, count = 6, 5
	seg := count * 8
	w := icc.NewChannelWorld(p, icc.WithAlg(icc.AlgHier))
	if err := w.Run(func(base *icc.Comm) error {
		c, err := base.WithClustersBySize(2)
		if err != nil {
			return err
		}
		me := c.Rank()

		send := confInt64s(me, count, 31)
		bA := make([]byte, seg)
		pA := make([]byte, seg)
		if err := c.AllReduce(send, bA, count, icc.Int64, icc.Sum); err != nil {
			return err
		}
		h, err := c.AllReduceInit(send, pA, count, icc.Int64, icc.Sum)
		if err != nil {
			return err
		}
		if err := startWait(h); err != nil {
			return err
		}
		if !bytes.Equal(pA, bA) {
			return fmt.Errorf("rank %d: hier persistent all-reduce differs", me)
		}

		cSend := confInt64s(me, count, 32)
		bC := make([]byte, seg*p)
		pC := make([]byte, seg*p)
		if err := c.Collect(cSend, bC, count, icc.Int64); err != nil {
			return err
		}
		h, err = c.CollectInit(cSend, pC, count, icc.Int64)
		if err != nil {
			return err
		}
		if err := startWait(h); err != nil {
			return err
		}
		if !bytes.Equal(pC, bC) {
			return fmt.Errorf("rank %d: hier persistent collect differs", me)
		}

		aSend := confInt64s(me, count*p, 33)
		bX := make([]byte, seg*p)
		pX := make([]byte, seg*p)
		if err := c.AllToAll(aSend, bX, count, icc.Int64); err != nil {
			return err
		}
		h, err = c.AllToAllInit(aSend, pX, count, icc.Int64)
		if err != nil {
			return err
		}
		if err := startWait(h); err != nil {
			return err
		}
		if !bytes.Equal(pX, bX) {
			return fmt.Errorf("rank %d: hier persistent all-to-all differs", me)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestNonBlockingBackToBack: two non-blocking collectives issued
// back-to-back both complete via Wait, in issue order, with correct
// results — the acceptance bar for the progress goroutine.
func TestNonBlockingBackToBack(t *testing.T) {
	const p, count = 5, 16
	w := icc.NewChannelWorld(p)
	if err := w.Run(func(c *icc.Comm) error {
		me := c.Rank()
		root := p / 2

		arSend := confInt64s(me, count, 41)
		arRecv := make([]byte, count*8)
		bcBuf := make([]byte, count*8)
		if me == root {
			copy(bcBuf, confInt64s(root, count, 42))
		}
		r1, err := c.IAllReduce(arSend, arRecv, count, icc.Int64, icc.Sum)
		if err != nil {
			return err
		}
		r2, err := c.IBcast(bcBuf, count, icc.Int64, root)
		if err != nil {
			return err
		}
		if err := r1.Wait(); err != nil {
			return fmt.Errorf("rank %d: IAllReduce: %w", me, err)
		}
		if err := r2.Wait(); err != nil {
			return fmt.Errorf("rank %d: IBcast: %w", me, err)
		}

		got := datatype.Int64s(arRecv)
		for i := range got {
			var want int64
			for r := 0; r < p; r++ {
				want += int64(r*1009 + i*31 + 41)
			}
			if got[i] != want {
				return fmt.Errorf("rank %d: all-reduce elem %d = %d, want %d", me, i, got[i], want)
			}
		}
		if !bytes.Equal(bcBuf, confInt64s(root, count, 42)) {
			return fmt.Errorf("rank %d: bcast payload wrong", me)
		}

		// Waiting again and Testing after completion keep reporting done.
		if err := r1.Wait(); err != nil {
			return err
		}
		if done, err := r2.Test(); !done || err != nil {
			return fmt.Errorf("rank %d: Test after Wait: done=%v err=%v", me, done, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestNonBlockingOnTwoSubs: a rank that belongs to two sub-communicators
// with a non-blocking collective in flight on each has two progress
// goroutines receiving on its one endpoint at the same time, each from its
// own peer. Both complete, every round, under the race detector.
func TestNonBlockingOnTwoSubs(t *testing.T) {
	const p, count, rounds = 4, 16, 200
	w := icc.NewChannelWorld(p)
	if err := w.Run(func(c *icc.Comm) error {
		me := c.Rank()
		// A 2x2 grid: each rank shares a row pair with me^1 and a column
		// pair with me^2. Every rank calls Sub for every group.
		var subs []*icc.Comm
		for _, g := range [][]int{{0, 1}, {2, 3}, {0, 2}, {1, 3}} {
			sub, err := c.Sub(g)
			if err != nil {
				return err
			}
			if sub != nil {
				subs = append(subs, sub)
			}
		}
		if len(subs) != 2 {
			return fmt.Errorf("rank %d: member of %d groups, want 2", me, len(subs))
		}
		partners := []int{me ^ 1, me ^ 2}
		recv := [][]byte{make([]byte, count*8), make([]byte, count*8)}
		for round := 0; round < rounds; round++ {
			var reqs [2]*icc.Request
			for i, sub := range subs {
				r, err := sub.IAllReduce(confInt64s(me, count, round+i), recv[i], count, icc.Int64, icc.Sum)
				if err != nil {
					return err
				}
				reqs[i] = r
			}
			for i, r := range reqs {
				if err := r.Wait(); err != nil {
					return fmt.Errorf("rank %d round %d group %d: %w", me, round, i, err)
				}
				got := datatype.Int64s(recv[i])
				mine, theirs := datatype.Int64s(confInt64s(me, count, round+i)), datatype.Int64s(confInt64s(partners[i], count, round+i))
				for j := range got {
					if got[j] != mine[j]+theirs[j] {
						return fmt.Errorf("rank %d round %d group %d elem %d: %d, want %d", me, round, i, j, got[j], mine[j]+theirs[j])
					}
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestNonBlockingAllVariants: every I* collective completes with the same
// result as its blocking counterpart, issued in one SPMD program.
func TestNonBlockingAllVariants(t *testing.T) {
	const p, count = 4, 3
	seg := count * 8
	total := seg * p
	root := 1
	w := icc.NewChannelWorld(p)
	if err := w.Run(func(c *icc.Comm) error {
		me := c.Rank()
		check := func(name string, req *icc.Request, err error, got, want []byte) error {
			if err != nil {
				return fmt.Errorf("%s issue: %w", name, err)
			}
			if err := req.Wait(); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if want != nil && !bytes.Equal(got, want) {
				return fmt.Errorf("rank %d: %s differs from blocking", me, name)
			}
			return nil
		}

		bBuf, nBuf := make([]byte, seg), make([]byte, seg)
		if me == root {
			copy(bBuf, confInt64s(root, count, 51))
			copy(nBuf, bBuf)
		}
		if err := c.Bcast(bBuf, count, icc.Int64, root); err != nil {
			return err
		}
		req, err := c.IBcast(nBuf, count, icc.Int64, root)
		if err := check("IBcast", req, err, nBuf, bBuf); err != nil {
			return err
		}

		send := confInt64s(me, count, 52)
		bR, nR := make([]byte, seg), make([]byte, seg)
		if err := c.Reduce(send, bR, count, icc.Int64, icc.Sum, root); err != nil {
			return err
		}
		req, err = c.IReduce(send, nR, count, icc.Int64, icc.Sum, root)
		var wantR []byte
		if me == root {
			wantR = bR
		}
		if err := check("IReduce", req, err, nR, wantR); err != nil {
			return err
		}

		bA, nA := make([]byte, seg), make([]byte, seg)
		if err := c.AllReduce(send, bA, count, icc.Int64, icc.Sum); err != nil {
			return err
		}
		req, err = c.IAllReduce(send, nA, count, icc.Int64, icc.Sum)
		if err := check("IAllReduce", req, err, nA, bA); err != nil {
			return err
		}

		var sSend []byte
		if me == root {
			sSend = confInt64s(root, count*p, 53)
		}
		bS, nS := make([]byte, seg), make([]byte, seg)
		if err := c.Scatter(sSend, bS, count, icc.Int64, root); err != nil {
			return err
		}
		req, err = c.IScatter(sSend, nS, count, icc.Int64, root)
		if err := check("IScatter", req, err, nS, bS); err != nil {
			return err
		}

		bG, nG := make([]byte, total), make([]byte, total)
		if err := c.Gather(send, bG, count, icc.Int64, root); err != nil {
			return err
		}
		req, err = c.IGather(send, nG, count, icc.Int64, root)
		var wantG []byte
		if me == root {
			wantG = bG
		}
		if err := check("IGather", req, err, nG, wantG); err != nil {
			return err
		}

		bC, nC := make([]byte, total), make([]byte, total)
		if err := c.Collect(send, bC, count, icc.Int64); err != nil {
			return err
		}
		req, err = c.ICollect(send, nC, count, icc.Int64)
		if err := check("ICollect", req, err, nC, bC); err != nil {
			return err
		}

		aSend := confInt64s(me, count*p, 54)
		bX, nX := make([]byte, total), make([]byte, total)
		if err := c.AllToAll(aSend, bX, count, icc.Int64); err != nil {
			return err
		}
		req, err = c.IAllToAll(aSend, nX, count, icc.Int64)
		if err := check("IAllToAll", req, err, nX, bX); err != nil {
			return err
		}

		req, err = c.IBarrier()
		return check("IBarrier", req, err, nil, nil)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestNonBlockingSimnet: non-blocking and persistent collectives also run
// on the virtual-time simulator (the progress goroutine inherits the
// node's scheduler baton through its posted operations).
func TestNonBlockingSimnet(t *testing.T) {
	const p, count = 4, 8
	if _, err := icc.SimulateMesh(1, p, icc.ParagonMachine(), true, func(c *icc.Comm) error {
		me := c.Rank()
		send := confInt64s(me, count, 61)
		recv := make([]byte, count*8)
		req, err := c.IAllReduce(send, recv, count, icc.Int64, icc.Sum)
		if err != nil {
			return err
		}
		if err := req.Wait(); err != nil {
			return err
		}
		got := datatype.Int64s(recv)
		for i := range got {
			var want int64
			for r := 0; r < p; r++ {
				want += int64(r*1009 + i*31 + 61)
			}
			if got[i] != want {
				return fmt.Errorf("rank %d: elem %d = %d, want %d", me, i, got[i], want)
			}
		}
		h, err := c.BarrierInit()
		if err != nil {
			return err
		}
		return startWait(h)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPersistentHandleMisuse: handle-lifecycle violations return errors
// instead of corrupting state.
func TestPersistentHandleMisuse(t *testing.T) {
	w := icc.NewChannelWorld(2)
	if err := w.Run(func(c *icc.Comm) error {
		buf := make([]byte, 8)
		h, err := c.BcastInit(buf, 1, icc.Int64, 0)
		if err != nil {
			return err
		}
		if err := h.Wait(); err == nil {
			return fmt.Errorf("Wait before Start accepted")
		}
		if _, err := h.Test(); err == nil {
			return fmt.Errorf("Test before Start accepted")
		}
		if err := startWait(h); err != nil {
			return err
		}
		h.Free()
		if err := h.Start(); err == nil {
			return fmt.Errorf("Start after Free accepted")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestProgressGoroutineExits: once all requests drain, the communicator
// owns no goroutine — issuing work and completing it leaves the process at
// its baseline goroutine count.
func TestProgressGoroutineExits(t *testing.T) {
	base := runtime.NumGoroutine()
	const p, count = 4, 8
	w := icc.NewChannelWorld(p)
	if err := w.Run(func(c *icc.Comm) error {
		for it := 0; it < 3; it++ {
			send := confInt64s(c.Rank(), count, 70+it)
			recv := make([]byte, count*8)
			req, err := c.IAllReduce(send, recv, count, icc.Int64, icc.Sum)
			if err != nil {
				return err
			}
			if err := req.Wait(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d at start, %d after drain", base, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
