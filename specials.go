package icc

// Specialized broadcasts beyond the hybrid family (§8, §11). These are not
// selected automatically: the paper's judgment — reproduced by the
// cmd/paper ablate and edst experiments — is that their theoretical edge is
// fragile on real systems, so the library offers them explicitly for
// applications that know their environment.

// BcastPipelined broadcasts count elements of type dt from root through a
// ring pipeline (van de Geijn & Watts [15]): asymptotically nβ for long
// vectors, twice the scatter/collect rate, at the price of a (p+K)-step
// critical path that accumulates timing jitter. blocks ≤ 0 selects the
// model-optimal block count. On power-of-two communicators the ring runs
// along a Gray-code Hamiltonian ordering, so on hypercube interconnects
// every hop is a native cube edge.
func (c *Comm) BcastPipelined(buf []byte, count int, dt Type, root, blocks int) error {
	return runNow(c.bcastPipelined(buf, count, dt, root, blocks))
}

// BcastEDST broadcasts using the Ho–Johnsson edge-disjoint spanning tree
// structure (§8, [7]). The communicator size must be a power of two. See
// EXPERIMENTS.md for where this wins (latency-critical mid-size vectors on
// hypercube interconnects) and where it does not.
func (c *Comm) BcastEDST(buf []byte, count int, dt Type, root int) error {
	return runNow(c.bcastEDST(buf, count, dt, root))
}

// AllReduceHypercube runs the recursive-halving + recursive-doubling
// combine-to-all (the iPSC-style algorithm of §11). The communicator size
// must be a power of two.
func (c *Comm) AllReduceHypercube(send, recv []byte, count int, dt Type, op Op) error {
	return runNow(c.allReduceHypercube(send, recv, count, dt, op))
}
