// Benchmarks for the persistent and non-blocking API: the persistent
// Start/Wait hot path against the one-shot blocking call, and the plan
// cache itself. Run with -benchmem; `make benchall` smoke-runs them, and
// the repo's measured numbers are bench/'s persist_replay workload.
package icc_test

import (
	"fmt"
	"testing"

	icc "repro"
)

// benchAllReduce runs b.N all-reduces of `bytes` bytes on a p-rank channel
// world, either through a persistent handle initialised once or through
// the one-shot blocking call. The world is spun up once; the timed region
// is only the per-iteration collective cost, which is what the persistent
// API is meant to shave.
func benchAllReduce(b *testing.B, p, bytes int, persistent bool) {
	w := icc.NewChannelWorld(p)
	send := make([]byte, bytes)
	recv := make([]byte, bytes)
	b.SetBytes(int64(bytes))
	b.ResetTimer()
	err := w.Run(func(c *icc.Comm) error {
		if persistent {
			h, err := c.AllReduceInit(send, recv, bytes, icc.Uint8, icc.Sum)
			if err != nil {
				return err
			}
			defer h.Free()
			for i := 0; i < b.N; i++ {
				if err := h.Start(); err != nil {
					return err
				}
				if err := h.Wait(); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < b.N; i++ {
			if err := c.AllReduce(send, recv, bytes, icc.Uint8, icc.Sum); err != nil {
				return err
			}
		}
		return nil
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPersistentAllReduce: the plan-cached Start/Wait hot path. The
// acceptance bar for the persistent API is fewer allocs/op than
// BenchmarkOneShotAllReduce at the same size.
func BenchmarkPersistentAllReduce(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			benchAllReduce(b, 8, n, true)
		})
	}
}

// BenchmarkOneShotAllReduce: the blocking call repeated, re-validating and
// re-staging buffers every iteration.
func BenchmarkOneShotAllReduce(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			benchAllReduce(b, 8, n, false)
		})
	}
}

// BenchmarkPlanCache measures resolving an already-recorded plan from the
// per-communicator cache (the persistent/non-blocking init fast path) and
// reports the observed hit rate. Rank 0 re-inits a persistent handle per
// iteration; every lookup after the first is a cache hit, so the rate
// approaches 1 as b.N grows.
func BenchmarkPlanCache(b *testing.B) {
	const p, bytes = 8, 1 << 10
	w := icc.NewChannelWorld(p)
	send := make([]byte, bytes)
	recv := make([]byte, bytes)
	var hitRate float64
	b.ResetTimer()
	err := w.Run(func(c *icc.Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		for i := 0; i < b.N; i++ {
			h, err := c.AllReduceInit(send, recv, bytes, icc.Uint8, icc.Sum)
			if err != nil {
				return err
			}
			h.Free()
		}
		st := c.PlanCacheStats()
		if total := st.Hits + st.Misses; total > 0 {
			hitRate = float64(st.Hits) / float64(total)
		}
		return nil
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(hitRate, "hit-rate")
}
