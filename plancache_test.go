// Tests of what a plan cache in front of every call could get wrong: a
// warmed signature must produce what a cold communicator produces, however
// the cache was filled, evicted or collided in between — and must do it
// without allocating.
package icc_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	icc "repro"
	"repro/internal/group"
	"repro/internal/tcptransport"
)

// repeatCase is one blocking collective with two signatures: variant 1
// differs from variant 0 in root, counts or op, so it must not share
// variant 0's plan. salt makes every call's payload fresh.
type repeatCase struct {
	name string
	run  func(c *icc.Comm, variant, salt int) ([]byte, error)
}

// repeatCounts returns per-rank element counts for p > 1 ranks; the two
// variants have equal totals, so a plan wrongly shared between them would
// still fit the buffers.
func repeatCounts(p, variant int) []int {
	counts := make([]int, p)
	for i := range counts {
		counts[i] = (i*3+1)%5 + 1
	}
	if variant == 1 {
		counts[0]++
		counts[p-1]--
	}
	return counts
}

func repeatCases(p int) []repeatCase {
	root := func(v int) int { return (p/2 + v) % p }
	total := func(counts []int) (n int) {
		for _, k := range counts {
			n += k
		}
		return n
	}
	pair := func(src, dst, v int) int { return (src*2 + dst*3 + 1 + v) % 4 }
	return []repeatCase{
		{"Bcast", func(c *icc.Comm, v, salt int) ([]byte, error) {
			buf := make([]byte, 17*8)
			if c.Rank() == root(v) {
				copy(buf, confInt64s(root(v), 17, salt))
			}
			return buf, c.Bcast(buf, 17, icc.Int64, root(v))
		}},
		{"Reduce", func(c *icc.Comm, v, salt int) ([]byte, error) {
			recv := make([]byte, 17*8)
			err := c.Reduce(confInt64s(c.Rank(), 17, salt), recv, 17, icc.Int64, icc.Sum, root(v))
			if c.Rank() != root(v) {
				recv = nil
			}
			return recv, err
		}},
		{"AllReduce", func(c *icc.Comm, v, salt int) ([]byte, error) {
			recv := make([]byte, 17*8)
			return recv, c.AllReduce(confInt64s(c.Rank(), 17, salt), recv, 17, icc.Int64, []icc.Op{icc.Sum, icc.Max}[v])
		}},
		{"Scatter", func(c *icc.Comm, v, salt int) ([]byte, error) {
			var send []byte
			if c.Rank() == root(v) {
				send = confInt64s(root(v), 4*p, salt)
			}
			recv := make([]byte, 4*8)
			return recv, c.Scatter(send, recv, 4, icc.Int64, root(v))
		}},
		{"Scatterv", func(c *icc.Comm, v, salt int) ([]byte, error) {
			counts := repeatCounts(p, v)
			var send []byte
			if c.Rank() == root(0) {
				send = confInt64s(root(0), total(counts), salt)
			}
			recv := make([]byte, counts[c.Rank()]*8)
			return recv, c.Scatterv(send, counts, recv, icc.Int64, root(0))
		}},
		{"Gather", func(c *icc.Comm, v, salt int) ([]byte, error) {
			recv := make([]byte, 4*p*8)
			err := c.Gather(confInt64s(c.Rank(), 4, salt), recv, 4, icc.Int64, root(v))
			if c.Rank() != root(v) {
				recv = nil
			}
			return recv, err
		}},
		{"Gatherv", func(c *icc.Comm, v, salt int) ([]byte, error) {
			counts := repeatCounts(p, v)
			recv := make([]byte, total(counts)*8)
			err := c.Gatherv(confInt64s(c.Rank(), counts[c.Rank()], salt), counts, recv, icc.Int64, root(0))
			if c.Rank() != root(0) {
				recv = nil
			}
			return recv, err
		}},
		{"Collect", func(c *icc.Comm, v, salt int) ([]byte, error) {
			n := 3 + v
			recv := make([]byte, n*p*8)
			return recv, c.Collect(confInt64s(c.Rank(), n, salt), recv, n, icc.Int64)
		}},
		{"Collectv", func(c *icc.Comm, v, salt int) ([]byte, error) {
			counts := repeatCounts(p, v)
			recv := make([]byte, total(counts)*8)
			return recv, c.Collectv(confInt64s(c.Rank(), counts[c.Rank()], salt), counts, recv, icc.Int64)
		}},
		{"ReduceScatter", func(c *icc.Comm, v, salt int) ([]byte, error) {
			counts := repeatCounts(p, v)
			recv := make([]byte, counts[c.Rank()]*8)
			return recv, c.ReduceScatter(confInt64s(c.Rank(), total(counts), salt), counts, recv, icc.Int64, icc.Sum)
		}},
		{"AllToAll", func(c *icc.Comm, v, salt int) ([]byte, error) {
			n := 2 + v
			recv := make([]byte, n*p*8)
			return recv, c.AllToAll(confInt64s(c.Rank(), n*p, salt), recv, n, icc.Int64)
		}},
		{"AllToAllv", func(c *icc.Comm, v, salt int) ([]byte, error) {
			sc, rc := make([]int, p), make([]int, p)
			for j := range sc {
				sc[j], rc[j] = pair(c.Rank(), j, v), pair(j, c.Rank(), v)
			}
			recv := make([]byte, total(rc)*8)
			return recv, c.AllToAllv(confInt64s(c.Rank(), total(sc), salt), sc, recv, rc, icc.Int64)
		}},
		{"Barrier", func(c *icc.Comm, _, _ int) ([]byte, error) {
			return []byte{0xb7}, c.Barrier()
		}},
	}
}

// repeatProgram runs every collective through miss → hit → other signature
// (miss) → first signature again (hit) on one long-lived communicator, and
// holds each call to the result of the same call on a communicator that has
// never run anything (Sub of every rank: same group, empty cache). The
// cache counters must move by exactly those two misses and two hits.
func repeatProgram(c *icc.Comm) error {
	all := group.Identity(c.Size())
	salt := 0
	for _, rc := range repeatCases(c.Size()) {
		before := c.PlanCacheStats()
		for _, variant := range []int{0, 0, 1, 0} {
			salt++
			cold, err := c.Sub(all)
			if err != nil {
				return err
			}
			want, err := rc.run(cold, variant, salt)
			if err != nil {
				return fmt.Errorf("%s cold: %w", rc.name, err)
			}
			got, err := rc.run(c, variant, salt)
			if err != nil {
				return fmt.Errorf("%s: %w", rc.name, err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("rank %d %s variant %d salt %d: warmed %x != cold %x", c.Rank(), rc.name, variant, salt, got, want)
			}
		}
		after := c.PlanCacheStats()
		misses, hits := after.Misses-before.Misses, after.Hits-before.Hits
		wantMiss := int64(2)
		if rc.name == "Barrier" {
			wantMiss = 1 // it has one signature
		}
		if misses != wantMiss || hits != 4-wantMiss {
			return fmt.Errorf("rank %d %s: %d misses %d hits, want %d and %d", c.Rank(), rc.name, misses, hits, wantMiss, 4-wantMiss)
		}
	}
	return nil
}

// TestConformanceRepeat: the repeat dimension of the conformance suite, on
// all three transports (a single rank has no second root or layout to
// switch to, so it stays with the base suite).
func TestConformanceRepeat(t *testing.T) {
	for _, p := range []int{4, 5} {
		p := p
		t.Run(fmt.Sprintf("chan/p%d", p), func(t *testing.T) {
			if err := icc.NewChannelWorld(p).Run(repeatProgram); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(fmt.Sprintf("tcp/p%d", p), func(t *testing.T) {
			eps, err := tcptransport.NewLocalWorld(p, tcptransport.WithRecvTimeout(time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			errs := make([]error, p)
			var wg sync.WaitGroup
			for r := 0; r < p; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					defer eps[r].Close()
					c, nerr := icc.New(eps[r])
					if nerr != nil {
						errs[r] = nerr
						return
					}
					errs[r] = repeatProgram(c)
				}(r)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Errorf("rank %d: %v", r, err)
				}
			}
		})
		t.Run(fmt.Sprintf("simnet/p%d", p), func(t *testing.T) {
			if _, err := icc.SimulateMesh(1, p, icc.ParagonMachine(), true, repeatProgram); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// collectvOracle is what Collectv must leave on every rank.
func collectvOracle(counts []int, salt int) []byte {
	var want []byte
	for r, n := range counts {
		want = append(want, confInt64s(r, n, salt)...)
	}
	return want
}

// TestPlanCacheBounded: more distinct count vectors than the cache holds
// keep the cache at its bound and every result right — including the early
// vectors called again after they were evicted.
func TestPlanCacheBounded(t *testing.T) {
	const p = 4
	vectors := icc.PlanCacheMax + 16
	err := icc.NewChannelWorld(p).Run(func(c *icc.Comm) error {
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < vectors; i++ {
				counts := []int{1 + i, 2, 0, 3}
				salt := pass*vectors + i
				want := collectvOracle(counts, salt)
				recv := make([]byte, len(want))
				if err := c.Collectv(confInt64s(c.Rank(), counts[c.Rank()], salt), counts, recv, icc.Int64); err != nil {
					return err
				}
				if !bytes.Equal(recv, want) {
					return fmt.Errorf("rank %d pass %d vector %d: %x, want %x", c.Rank(), pass, i, recv, want)
				}
				if st := c.PlanCacheStats(); st.Entries > icc.PlanCacheMax {
					return fmt.Errorf("rank %d: %d plans cached, bound %d", c.Rank(), st.Entries, icc.PlanCacheMax)
				}
			}
		}
		if st := c.PlanCacheStats(); st.Entries != icc.PlanCacheMax {
			return fmt.Errorf("rank %d: %d plans cached after overflowing the bound %d", c.Rank(), st.Entries, icc.PlanCacheMax)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheHashCollision: two count vectors with one hash and one total
// must not share a plan — the second would scatter the first's offsets over
// buffers they happen to fit.
func TestPlanCacheHashCollision(t *testing.T) {
	a, b := []int{1, 40, 0, 5}, []int{2, 8, 31, 5}
	if icc.HashCounts(a) != icc.HashCounts(b) {
		t.Fatalf("%v and %v no longer collide; find a new pair for the current hash", a, b)
	}
	err := icc.NewChannelWorld(len(a)).Run(func(c *icc.Comm) error {
		for i, counts := range [][]int{a, b, a, b} {
			want := collectvOracle(counts, i)
			recv := make([]byte, len(want))
			if err := c.Collectv(confInt64s(c.Rank(), counts[c.Rank()], i), counts, recv, icc.Int64); err != nil {
				return err
			}
			if !bytes.Equal(recv, want) {
				return fmt.Errorf("rank %d call %d counts %v: wrong vector", c.Rank(), i, counts)
			}
		}
		if st := c.PlanCacheStats(); st.Hits != 0 || st.Entries != 1 {
			return fmt.Errorf("rank %d: colliding vectors: %+v, want 4 misses sharing one slot", c.Rank(), st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBlockingZeroAllocs: a warmed blocking collective allocates nothing in
// the library or the chan transport — plan lookup, staging and execution
// all run on cached or pooled state. Rank 0 measures; the others keep step.
func TestBlockingZeroAllocs(t *testing.T) {
	if testing.Short() {
		// The gate's race pass is its -short pass, and under the race
		// detector sync.Pool drops items at random.
		t.Skip("allocation counts are taken in the full pass only")
	}
	const p, warm, runs, count = 4, 20, 200, 128 // 1 KiB of float64
	counts := []int{count/4 + 3, count/4 - 3, count / 4, count / 4}
	err := icc.NewChannelWorld(p).Run(func(c *icc.Comm) error {
		send, recv := make([]byte, count*8), make([]byte, count*8)
		calls := []struct {
			name string
			call func() error
		}{
			{"AllReduce", func() error { return c.AllReduce(send, recv, count, icc.Float64, icc.Sum) }},
			{"Bcast", func() error { return c.Bcast(recv, count, icc.Float64, 1) }},
			{"Collectv", func() error { return c.Collectv(send[:counts[c.Rank()]*8], counts, recv, icc.Float64) }},
			{"Barrier", c.Barrier},
		}
		// fence holds the other ranks until rank 0 has finished measuring:
		// left alone they would start warming the next collective, and
		// AllocsPerRun counts the whole process's allocations.
		fence := c.Barrier
		if err := fence(); err != nil { // builds the barrier's plan
			return err
		}
		for _, cl := range calls {
			// Warm: build the plan, size the staging pool, and let the
			// transport's buffer free lists reach the depth the ranks' skew
			// asks for.
			for i := 0; i < warm; i++ {
				if err := cl.call(); err != nil {
					return err
				}
			}
			if c.Rank() != 0 {
				for i := 0; i < runs+1; i++ { // AllocsPerRun warms up with one extra call
					if err := cl.call(); err != nil {
						return err
					}
				}
			} else {
				var cerr error
				allocs := testing.AllocsPerRun(runs, func() {
					if err := cl.call(); err != nil {
						cerr = err
					}
				})
				if cerr != nil {
					return cerr
				}
				if allocs != 0 {
					return fmt.Errorf("warmed blocking %s: %v allocs per call, want 0", cl.name, allocs)
				}
			}
			if err := fence(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTimingOnlyStagesNothing: on a timing-only endpoint no payload moves,
// so neither building a plan nor starting it may allocate by the vector's
// length. A persistent 1 MiB all-reduce on 64 simulated ranks must allocate
// what a 1 KiB one does, give or take what else the process allocates
// meanwhile (staging it cost 425 KB per rank and start).
func TestTimingOnlyStagesNothing(t *testing.T) {
	const p, starts = 64, 10
	allocated := func(count int) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := icc.SimulateMesh(1, p, icc.ParagonMachine(), false, func(c *icc.Comm) error {
			h, err := c.AllReduceInit(nil, nil, count, icc.Float64, icc.Sum)
			if err != nil {
				return err
			}
			defer h.Free()
			for i := 0; i < starts; i++ {
				if err := startWait(h); err != nil {
					return err
				}
			}
			return nil
		}, icc.WithAlg(icc.AlgLong)) // one algorithm, so one step count, at both lengths
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	small, large := allocated(1<<10/8), allocated(1<<20/8)
	if perStart := (int64(large) - int64(small)) / (p * starts); perStart > 16<<10 {
		t.Errorf("1 MiB all-reduce allocates %d B more per rank and start than a 1 KiB one (%d vs %d B in all)", perStart, large, small)
	}
}

// TestHierAllToAllvCases: the hierarchical ragged exchange — a cached
// collect of the count matrix, then an exchange plan built from it — agrees
// bitwise with the flat pairwise schedule on a 2-level and a 3-level
// topology, for ragged, zero-block and all-empty matrices called back to
// back on one communicator, and a rank whose recvCounts contradict a peer's
// sendCounts gets the count-mismatch error while its peers are released.
func TestHierAllToAllvCases(t *testing.T) {
	const p = 12
	topologies := map[string][][]int{"2-level": {make([]int, p)}, "3-level": {make([]int, p), make([]int, p)}}
	for r := 0; r < p; r++ {
		topologies["2-level"][0][r] = r % 3
		topologies["3-level"][0][r] = r % 2
		topologies["3-level"][1][r] = r % 4
	}
	// matrices[m](src, dst) is what src sends dst: ragged with zeros, one
	// sender silent, everything empty.
	matrices := []func(src, dst int) int{
		func(src, dst int) int { return (src*2 + dst*3 + 1) % 5 },
		func(src, dst int) int {
			if src == 3 {
				return 0
			}
			return (src + dst) % 3
		},
		func(int, int) int { return 0 },
	}
	exchange := func(c *icc.Comm, m, skew int) ([]byte, error) {
		me := c.Rank()
		sc, rc := make([]int, p), make([]int, p)
		sTotal, rTotal := 0, 0
		for j := range sc {
			sc[j], rc[j] = matrices[m](me, j), matrices[m](j, me)
			sTotal, rTotal = sTotal+sc[j], rTotal+rc[j]
		}
		rc[0] += skew
		recv := make([]byte, (rTotal+skew)*8)
		return recv, c.AllToAllv(confInt64s(me, sTotal, 40+m), sc, recv, rc, icc.Int64)
	}
	flat := make([][][]byte, len(matrices))
	for m := range matrices {
		flat[m] = make([][]byte, p)
		if err := icc.NewChannelWorld(p).Run(func(c *icc.Comm) error {
			var err error
			flat[m][c.Rank()], err = exchange(c, m, 0)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	for name, levels := range topologies {
		levels := levels
		t.Run(name, func(t *testing.T) {
			err := icc.NewChannelWorld(p, icc.WithAlg(icc.AlgHier)).Run(func(base *icc.Comm) error {
				c, err := base.WithTopology(levels...)
				if err != nil {
					return err
				}
				for _, m := range []int{0, 1, 2, 0} {
					got, err := exchange(c, m, 0)
					if err != nil {
						return err
					}
					if !bytes.Equal(got, flat[m][c.Rank()]) {
						return fmt.Errorf("rank %d matrix %d: hier %x != flat %x", c.Rank(), m, got, flat[m][c.Rank()])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			// Rank 5 expects one element more from rank 0 than rank 0 sends.
			errs := make([]error, p)
			_ = icc.NewChannelWorld(p, icc.WithAlg(icc.AlgHier)).Run(func(base *icc.Comm) error {
				c, err := base.WithTopology(levels...)
				if err != nil {
					return err
				}
				skew := 0
				if c.Rank() == 5 {
					skew = 1
				}
				_, errs[c.Rank()] = exchange(c, 0, skew)
				return nil
			})
			for r, err := range errs {
				switch {
				case err == nil:
					t.Errorf("rank %d: mismatched exchange succeeded", r)
				case r == 5 && !strings.Contains(err.Error(), "count mismatch"):
					t.Errorf("rank 5: %v, want the count-mismatch error", err)
				case r != 5 && !errors.Is(err, icc.ErrAborted):
					t.Errorf("rank %d: %v, want ErrAborted", r, err)
				}
			}
		})
	}
}
