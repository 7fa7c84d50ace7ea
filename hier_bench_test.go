// Benchmark for the hierarchical detour-buffer pool: partitioned
// collectives over non-contiguous placements pack into scratch buffers at
// every hierarchy level, and those buffers are pooled (sync.Pool), so the
// steady-state allocation count per call stays O(1) instead of growing
// with depth × vector size; run with -benchmem to see the allocs/op.
package icc_test

import (
	"testing"

	icc "repro"
)

// BenchmarkHierCollectDeep: blocking collect through a forced 3-level
// hierarchy whose ranks are dealt round-robin across nodes — the
// placement that takes the pack/unpack detour at every level on every
// call. After the first iterations warm the pool, allocs/op is flat.
func BenchmarkHierCollectDeep(b *testing.B) {
	const p, count = 12, 512
	racks := make([]int, p)
	nodes := make([]int, p)
	for r := 0; r < p; r++ {
		racks[r] = r % 2
		nodes[r] = r % 6
	}
	w := icc.NewChannelWorld(p, icc.WithAlg(icc.AlgHier))
	send := make([]byte, count*8)
	recv := make([]byte, count*8*p)
	b.SetBytes(int64(count * 8 * p))
	b.ResetTimer()
	err := w.Run(func(c *icc.Comm) error {
		h, err := c.WithTopology(racks, nodes)
		if err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if err := h.Collect(send, recv, count, icc.Int64); err != nil {
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
