package icc

import (
	"repro/internal/core"
	"repro/internal/group"
)

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
	p := c.Size()
	n := count * dt.Size()
	if blocks <= 0 {
		blocks = core.OptimalBlocks(c.mach, p, n)
	}
	ctx := c.ctx()
	if p&(p-1) == 0 && p > 1 {
		// Reorder the ring along the Gray code, rotated so the caller's
		// root leads it; every hop then crosses one hypercube dimension.
		gray := group.GrayRing(p)
		members := make([]int, p)
		for i, g := range gray {
			members[i] = c.members[g]
		}
		rootPos := group.Index(members, c.members[root])
		rot := make([]int, p)
		for i := range rot {
			rot[i] = members[(rootPos+i)%p]
		}
		ctx.Members = rot
		ctx.Me = group.Index(rot, c.members[c.me])
		return core.PipelinedBcast(ctx, 0, buf, count, dt.Size(), blocks)
	}
	return core.PipelinedBcast(ctx, root, buf, count, dt.Size(), blocks)
}

// BcastEDST broadcasts using the Ho–Johnsson edge-disjoint spanning tree
// structure (§8, [7]). The communicator size must be a power of two. See
// EXPERIMENTS.md for where this wins (latency-critical mid-size vectors on
// hypercube interconnects) and where it does not.
func (c *Comm) BcastEDST(buf []byte, count int, dt Type, root int) error {
	return core.EDSTBcast(c.ctx(), root, buf, count, dt.Size())
}

// AllReduceHypercube runs the recursive-halving + recursive-doubling
// combine-to-all (the iPSC-style algorithm of §11). The communicator size
// must be a power of two. work must hold count elements of scratch.
func (c *Comm) AllReduceHypercube(send, recv []byte, count int, dt Type, op Op) error {
	n := count * dt.Size()
	eb := c.staging(n, n)
	defer c.putBufs(eb)
	work, tmp := eb.buf, eb.tmp
	if c.carries() {
		copy(work, send[:n])
	}
	if err := core.HypercubeAllReduce(c.ctx(), work, tmp, count, dt, op); err != nil {
		return err
	}
	if c.carries() {
		copy(recv[:n], work)
	}
	return nil
}
