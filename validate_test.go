// Argument-validation suite: every public collective is called with each
// class of bad argument — out-of-range root, short send buffer, short
// recv buffer, negative count, wrong counts-slice length, overflowing
// byte totals — over all three transports, and must return an error on
// the affected ranks without panicking, deadlocking, or leaking
// goroutines. Before this suite the negative-count and overflow cases
// crashed the process inside makeslice.
//
// Every case is SPMD-consistent: all ranks pass the same bad arguments.
// Cases marked with a root rank error only there; they either fail after
// the collective completes on every rank (blocking Reduce/Gather recv
// checks) or fail locally before anything is enqueued (persistent Init),
// so no rank is left waiting on a peer that bailed out.
package icc_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	icc "repro"
	"repro/internal/chantransport"
	"repro/internal/harness"
	"repro/internal/tcptransport"
)

// valCase is one bad-argument invocation. errRoot is the only rank
// expected to error, or -1 when every rank must.
type valCase struct {
	name    string
	errRoot int
	run     func(c *icc.Comm) error
}

// valCases builds the bad-argument matrix for a group of p ranks. The
// good-argument fixture is count 4 of Int64 (32 bytes per rank segment).
const valCount = 4
const valSeg = valCount * 8

func valCases(p int) []valCase {
	root := p / 2
	seg := func() []byte { return make([]byte, valSeg) }
	all := func() []byte { return make([]byte, p*valSeg) }
	short := func() []byte { return make([]byte, valSeg/4) }
	goodCounts := make([]int, p)
	for i := range goodCounts {
		goodCounts[i] = valCount
	}
	longCounts := make([]int, p+1)
	negCounts := append([]int{-1}, goodCounts[1:]...)
	huge := math.MaxInt / 2

	cases := []valCase{
		// Bcast.
		{"Bcast/negative-count", -1, func(c *icc.Comm) error { return c.Bcast(seg(), -1, icc.Int64, root) }},
		{"Bcast/overflow", -1, func(c *icc.Comm) error { return c.Bcast(seg(), huge, icc.Int64, root) }},
		{"Bcast/root-low", -1, func(c *icc.Comm) error { return c.Bcast(seg(), valCount, icc.Int64, -1) }},
		{"Bcast/root-high", -1, func(c *icc.Comm) error { return c.Bcast(seg(), valCount, icc.Int64, p) }},
		{"Bcast/short-buf", -1, func(c *icc.Comm) error { return c.Bcast(short(), valCount, icc.Int64, root) }},

		// Reduce.
		{"Reduce/negative-count", -1, func(c *icc.Comm) error { return c.Reduce(seg(), seg(), -1, icc.Int64, icc.Sum, root) }},
		{"Reduce/root-high", -1, func(c *icc.Comm) error { return c.Reduce(seg(), seg(), valCount, icc.Int64, icc.Sum, p) }},
		{"Reduce/short-send", -1, func(c *icc.Comm) error { return c.Reduce(short(), seg(), valCount, icc.Int64, icc.Sum, root) }},
		// recv is only read on the root, after the combine completes on
		// every rank, so only the root errors and nobody deadlocks.
		{"Reduce/short-recv", root, func(c *icc.Comm) error { return c.Reduce(seg(), short(), valCount, icc.Int64, icc.Sum, root) }},

		// AllReduce.
		{"AllReduce/negative-count", -1, func(c *icc.Comm) error { return c.AllReduce(seg(), seg(), -1, icc.Int64, icc.Sum) }},
		{"AllReduce/short-send", -1, func(c *icc.Comm) error { return c.AllReduce(short(), seg(), valCount, icc.Int64, icc.Sum) }},
		{"AllReduce/short-recv", -1, func(c *icc.Comm) error { return c.AllReduce(seg(), short(), valCount, icc.Int64, icc.Sum) }},

		// Scatter / Scatterv. The equal-count recv check runs on every
		// rank before any communication.
		{"Scatter/negative-count", -1, func(c *icc.Comm) error { return c.Scatter(all(), seg(), -1, icc.Int64, root) }},
		{"Scatter/root-high", -1, func(c *icc.Comm) error { return c.Scatter(all(), seg(), valCount, icc.Int64, p) }},
		{"Scatter/short-recv", -1, func(c *icc.Comm) error { return c.Scatter(all(), short(), valCount, icc.Int64, root) }},
		{"Scatterv/counts-length", -1, func(c *icc.Comm) error { return c.Scatterv(all(), longCounts, seg(), icc.Int64, root) }},
		{"Scatterv/negative-counts", -1, func(c *icc.Comm) error { return c.Scatterv(all(), negCounts, seg(), icc.Int64, root) }},

		// Gather / Gatherv.
		{"Gather/negative-count", -1, func(c *icc.Comm) error { return c.Gather(seg(), all(), -1, icc.Int64, root) }},
		{"Gather/root-high", -1, func(c *icc.Comm) error { return c.Gather(seg(), all(), valCount, icc.Int64, p) }},
		{"Gather/short-send", -1, func(c *icc.Comm) error { return c.Gather(short(), all(), valCount, icc.Int64, root) }},
		{"Gather/short-recv", root, func(c *icc.Comm) error { return c.Gather(seg(), short(), valCount, icc.Int64, root) }},
		{"Gatherv/counts-length", -1, func(c *icc.Comm) error { return c.Gatherv(seg(), longCounts, all(), icc.Int64, root) }},

		// Collect / Collectv.
		{"Collect/negative-count", -1, func(c *icc.Comm) error { return c.Collect(seg(), all(), -1, icc.Int64) }},
		{"Collect/short-send", -1, func(c *icc.Comm) error { return c.Collect(short(), all(), valCount, icc.Int64) }},
		{"Collect/short-recv", -1, func(c *icc.Comm) error { return c.Collect(seg(), short(), valCount, icc.Int64) }},
		{"Collectv/counts-length", -1, func(c *icc.Comm) error { return c.Collectv(seg(), longCounts, all(), icc.Int64) }},

		// ReduceScatter.
		{"ReduceScatter/counts-length", -1, func(c *icc.Comm) error {
			return c.ReduceScatter(all(), longCounts, seg(), icc.Int64, icc.Sum)
		}},
		{"ReduceScatter/short-send", -1, func(c *icc.Comm) error {
			return c.ReduceScatter(short(), goodCounts, seg(), icc.Int64, icc.Sum)
		}},
		{"ReduceScatter/short-recv", -1, func(c *icc.Comm) error {
			return c.ReduceScatter(all(), goodCounts, short(), icc.Int64, icc.Sum)
		}},

		// AllToAll / AllToAllv.
		{"AllToAll/negative-count", -1, func(c *icc.Comm) error { return c.AllToAll(all(), all(), -1, icc.Int64) }},
		{"AllToAll/short-send", -1, func(c *icc.Comm) error { return c.AllToAll(short(), all(), valCount, icc.Int64) }},
		{"AllToAll/short-recv", -1, func(c *icc.Comm) error { return c.AllToAll(all(), short(), valCount, icc.Int64) }},
		{"AllToAllv/send-counts-length", -1, func(c *icc.Comm) error {
			return c.AllToAllv(all(), longCounts, all(), goodCounts, icc.Int64)
		}},
		{"AllToAllv/recv-counts-length", -1, func(c *icc.Comm) error {
			return c.AllToAllv(all(), goodCounts, all(), longCounts, icc.Int64)
		}},
		{"AllToAllv/short-send", -1, func(c *icc.Comm) error {
			return c.AllToAllv(short(), goodCounts, all(), goodCounts, icc.Int64)
		}},
		{"AllToAllv/short-recv", -1, func(c *icc.Comm) error {
			return c.AllToAllv(all(), goodCounts, short(), goodCounts, icc.Int64)
		}},

		// The three specials go through the same funnel as the thirteen.
		// Every group size of the suite is a power of two, as the cube
		// algorithms require, so nothing but the bad argument can fail.
		{"BcastPipelined/negative-count", -1, func(c *icc.Comm) error { return c.BcastPipelined(seg(), -1, icc.Int64, root, 2) }},
		{"BcastPipelined/overflow", -1, func(c *icc.Comm) error { return c.BcastPipelined(seg(), huge, icc.Int64, root, 0) }},
		{"BcastPipelined/root-low", -1, func(c *icc.Comm) error { return c.BcastPipelined(seg(), valCount, icc.Int64, -1, 0) }},
		{"BcastPipelined/root-high", -1, func(c *icc.Comm) error { return c.BcastPipelined(seg(), valCount, icc.Int64, p, 2) }},
		{"BcastPipelined/short-buf", -1, func(c *icc.Comm) error { return c.BcastPipelined(short(), valCount, icc.Int64, root, 0) }},
		{"BcastEDST/negative-count", -1, func(c *icc.Comm) error { return c.BcastEDST(seg(), -1, icc.Int64, root) }},
		{"BcastEDST/overflow", -1, func(c *icc.Comm) error { return c.BcastEDST(seg(), huge, icc.Int64, root) }},
		{"BcastEDST/root-high", -1, func(c *icc.Comm) error { return c.BcastEDST(seg(), valCount, icc.Int64, p) }},
		{"BcastEDST/short-buf", -1, func(c *icc.Comm) error { return c.BcastEDST(short(), valCount, icc.Int64, root) }},
		{"AllReduceHypercube/negative-count", -1, func(c *icc.Comm) error {
			return c.AllReduceHypercube(seg(), seg(), -1, icc.Int64, icc.Sum)
		}},
		{"AllReduceHypercube/overflow", -1, func(c *icc.Comm) error {
			return c.AllReduceHypercube(seg(), seg(), huge, icc.Int64, icc.Sum)
		}},
		{"AllReduceHypercube/short-send", -1, func(c *icc.Comm) error {
			return c.AllReduceHypercube(short(), seg(), valCount, icc.Int64, icc.Sum)
		}},
		{"AllReduceHypercube/short-recv", -1, func(c *icc.Comm) error {
			return c.AllReduceHypercube(seg(), short(), valCount, icc.Int64, icc.Sum)
		}},

		// Non-blocking variants validate before enqueueing anything; only
		// cases that fail on every rank are safe to issue SPMD-wide.
		{"IBcast/negative-count", -1, func(c *icc.Comm) error { _, err := c.IBcast(seg(), -1, icc.Int64, root); return err }},
		{"IBcast/root-high", -1, func(c *icc.Comm) error { _, err := c.IBcast(seg(), valCount, icc.Int64, p); return err }},
		{"IAllReduce/negative-count", -1, func(c *icc.Comm) error {
			_, err := c.IAllReduce(seg(), seg(), -1, icc.Int64, icc.Sum)
			return err
		}},
		{"IAllReduce/short-recv", -1, func(c *icc.Comm) error {
			_, err := c.IAllReduce(seg(), short(), valCount, icc.Int64, icc.Sum)
			return err
		}},
		{"IAllToAll/short-send", -1, func(c *icc.Comm) error { _, err := c.IAllToAll(short(), all(), valCount, icc.Int64); return err }},

		// Persistent inits fail before the handle exists and nothing is
		// ever started, so even root-only send/recv checks are safe.
		{"BcastInit/root-high", -1, func(c *icc.Comm) error { _, err := c.BcastInit(seg(), valCount, icc.Int64, p); return err }},
		{"AllReduceInit/negative-count", -1, func(c *icc.Comm) error {
			_, err := c.AllReduceInit(seg(), seg(), -1, icc.Int64, icc.Sum)
			return err
		}},
		{"AllReduceInit/short-send", -1, func(c *icc.Comm) error {
			_, err := c.AllReduceInit(short(), seg(), valCount, icc.Int64, icc.Sum)
			return err
		}},
		{"ScatterInit/short-send", root, func(c *icc.Comm) error {
			_, err := c.ScatterInit(short(), seg(), valCount, icc.Int64, root)
			return err
		}},
		{"GatherInit/short-recv", root, func(c *icc.Comm) error {
			_, err := c.GatherInit(seg(), short(), valCount, icc.Int64, root)
			return err
		}},
		{"CollectInit/short-recv", -1, func(c *icc.Comm) error {
			_, err := c.CollectInit(seg(), short(), valCount, icc.Int64)
			return err
		}},
	}
	if p >= 2 {
		// A single huge per-rank count whose running byte offset overflows.
		// At p == 1 there is no second offset to overflow, so the case only
		// exists on larger groups.
		overCounts := make([]int, p)
		for i := range overCounts {
			overCounts[i] = math.MaxInt / 8
		}
		cases = append(cases, valCase{"Scatterv/counts-overflow", -1, func(c *icc.Comm) error {
			return c.Scatterv(all(), overCounts, seg(), icc.Int64, root)
		}})
	}
	return cases
}

// runValProgram runs the whole case table on one rank and records each
// case's error (or its absence) for the driver to judge.
func runValProgram(c *icc.Comm, errs [][]string) error {
	for ci, vc := range valCases(c.Size()) {
		err := vc.run(c)
		if err != nil {
			errs[c.Rank()][ci] = err.Error()
		}
	}
	return nil
}

// judgeVal asserts the recorded per-rank errors match each case's
// expectation: an error on every rank (or exactly on errRoot), and never
// a recovered panic dressed up as an error.
func judgeVal(t *testing.T, transport string, p int, errs [][]string) {
	t.Helper()
	for ci, vc := range valCases(p) {
		for r := 0; r < p; r++ {
			got := errs[r][ci]
			want := vc.errRoot < 0 || vc.errRoot == r
			if want && got == "" {
				t.Errorf("%s p=%d %s: rank %d returned no error", transport, p, vc.name, r)
			}
			if !want && got != "" {
				t.Errorf("%s p=%d %s: rank %d unexpectedly errored: %s", transport, p, vc.name, r, got)
			}
			if strings.Contains(got, "panic") {
				t.Errorf("%s p=%d %s: rank %d error came from a recovered panic: %s", transport, p, vc.name, r, got)
			}
		}
	}
}

func newValErrs(p int) [][]string {
	errs := make([][]string, p)
	for i := range errs {
		errs[i] = make([]string, len(valCases(p)))
	}
	return errs
}

// TestValidateArgsAcrossTransports: the full bad-argument matrix over the
// channel transport, the TCP transport, and the simulator, at a
// degenerate and a mid-size group.
func TestValidateArgsAcrossTransports(t *testing.T) {
	leak := harness.StartLeakCheck()
	for _, p := range []int{1, 4} {
		p := p
		t.Run(fmt.Sprintf("chan/p%d", p), func(t *testing.T) {
			errs := newValErrs(p)
			w := icc.NewChannelWorld(p)
			if err := w.Run(func(c *icc.Comm) error { return runValProgram(c, errs) }); err != nil {
				t.Fatalf("run: %v", err)
			}
			judgeVal(t, "chantransport", p, errs)
		})
		t.Run(fmt.Sprintf("tcp/p%d", p), func(t *testing.T) {
			errs := newValErrs(p)
			eps, err := tcptransport.NewLocalWorld(p, tcptransport.WithRecvTimeout(time.Minute))
			if err != nil {
				t.Fatalf("tcptransport: %v", err)
			}
			rerrs := make([]error, p)
			var wg sync.WaitGroup
			for r := 0; r < p; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					defer eps[r].Close()
					c, nerr := icc.New(eps[r])
					if nerr != nil {
						rerrs[r] = nerr
						return
					}
					rerrs[r] = runValProgram(c, errs)
				}(r)
			}
			wg.Wait()
			for r, err := range rerrs {
				if err != nil {
					t.Fatalf("tcptransport rank %d: %v", r, err)
				}
			}
			judgeVal(t, "tcptransport", p, errs)
		})
		t.Run(fmt.Sprintf("simnet/p%d", p), func(t *testing.T) {
			errs := newValErrs(p)
			if _, err := icc.SimulateMesh(1, p, icc.ParagonMachine(), true,
				func(c *icc.Comm) error { return runValProgram(c, errs) }); err != nil {
				t.Fatalf("simnet: %v", err)
			}
			judgeVal(t, "simnet", p, errs)
		})
	}
	// No rank program or progress goroutine may outlive its world.
	leak.Verify(t)
}

// TestValidateScatterShortSendOnRoot covers the one blocking case whose
// validation is inherently root-only and pre-communication: Scatter's
// send buffer exists only on the root, so the root bails out while the
// other ranks enter the collective and (on a timeout-capable transport)
// report the resulting stall as an error instead of hanging.
func TestValidateScatterShortSendOnRoot(t *testing.T) {
	const p = 4
	root := p / 2
	w, err := chantransport.NewWorld(p, chantransport.WithRecvTimeout(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(ep *chantransport.Endpoint) error {
		c, nerr := icc.New(ep)
		if nerr != nil {
			return nerr
		}
		send := make([]byte, valSeg) // root needs p*valSeg
		recv := make([]byte, valSeg)
		serr := c.Scatter(send, recv, valCount, icc.Int64, root)
		if serr == nil {
			return fmt.Errorf("rank %d: scatter with short root send succeeded", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunRecoversRankPanic pins the crash-proofing contract of the
// channel transport runner: a panic in one rank's program surfaces as
// that rank's error instead of killing the process.
func TestRunRecoversRankPanic(t *testing.T) {
	w, err := chantransport.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(ep *chantransport.Endpoint) error {
		if ep.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panicking rank produced no error")
	}
	if got := err.Error(); !strings.Contains(got, "rank 1") || !strings.Contains(got, "panic: boom") {
		t.Fatalf("error %q does not identify the panicking rank", got)
	}
}
