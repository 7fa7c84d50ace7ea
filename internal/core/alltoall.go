package core

import (
	"fmt"

	"repro/internal/model"
)

// The complete exchange (all-to-all): every node holds p personalized
// blocks, block j destined to logical node j; on return every node holds
// the p blocks addressed to it, block j in position j. It is the one dense
// pattern Table 1 lacks — the backbone of distributed transposes and FFTs —
// and, like the Table 1 operations, it comes in a latency form and a
// bandwidth form:
//
//   - short vectors: a Bruck-style store-and-forward relay in ⌈log₂p⌉
//     steps, each moving about half the vector — the complete-exchange
//     analogue of the MST primitives (§4.1);
//   - long vectors: a ring-rotation pairwise exchange in p−1 steps, step t
//     trading exactly one block with the nodes ±t around the ring, so
//     every byte crosses the network once — the analogue of the bucket
//     primitives (§4.2).
//
// The analytic crossover between the two is priced by
// model.ShortAllToAll/LongAllToAll, and the automatic policy selects per
// call, exactly as for the Table 1 operations.

// AllToAll executes the complete exchange with equal per-pair counts under
// shape s: ShortFrom 0 (every dimension short) selects the Bruck relay,
// any other switch point the pairwise schedule, and Hier the hierarchical
// composition. send holds p blocks of count elements each; recv receives p
// blocks. send and recv must not overlap (both may be nil in timing-only
// mode).
func AllToAll(c Ctx, s model.Shape, send, recv []byte, count, es int) error {
	e := c.env()
	if err := c.validate(); err != nil {
		return err
	}
	if count < 0 {
		return fmt.Errorf("core: negative count %d", count)
	}
	if es <= 0 {
		return fmt.Errorf("core: element size %d", es)
	}
	n := e.p() * count * es
	if err := checkBuf("all-to-all send", e.carry, send, n); err != nil {
		return err
	}
	if err := checkBuf("all-to-all recv", e.carry, recv, n); err != nil {
		return err
	}
	if s.Hier {
		ht, ms, herr := c.hierN()
		if herr != nil {
			return herr
		}
		return hierAllToAll(&e, ht, ms, send, recv, count, es)
	}
	if err := validateShape(&e, s); err != nil {
		return err
	}
	if s.ShortFrom == 0 {
		return bruckAllToAll(&e, 0, send, recv, count, es)
	}
	offs := uniformOffsets(e.p(), count*es)
	return pairwiseAllToAll(&e, 0, offs, offs, send, recv)
}

// AllToAllv is the complete exchange with per-pair counts: node i sends
// sendCounts[j] elements to node j and receives recvCounts[j] elements
// from node j (so rank i's sendCounts[j] must equal rank j's
// recvCounts[i]). The flat path runs only the pairwise schedule: the
// Bruck relay forwards other nodes' blocks, which requires the full count
// matrix the interface (deliberately, like MPI_Alltoallv) does not
// provide. A hierarchical shape instead assembles that matrix on the fly —
// leaders gather their members' count rows and allgather them — and runs
// the ragged cluster exchange; this needs a carrying, non-recording
// endpoint, so other endpoints fall back to the flat pairwise schedule.
func AllToAllv(c Ctx, s model.Shape, send []byte, sendCounts []int, recv []byte, recvCounts []int, es int) error {
	e := c.env()
	if err := c.validate(); err != nil {
		return err
	}
	if s.Hier && e.carry && e.rec == nil {
		ht, ms, herr := c.hierN()
		if herr != nil {
			return herr
		}
		if _, err := countOffsets(c, sendCounts, es, e.carry, send); err != nil {
			return err
		}
		if _, err := countOffsets(c, recvCounts, es, e.carry, recv); err != nil {
			return err
		}
		return hierAllToAllv(&e, ht, ms, send, sendCounts, recv, recvCounts, es)
	}
	sOffs, err := countOffsets(c, sendCounts, es, e.carry, send)
	if err != nil {
		return err
	}
	rOffs, err := countOffsets(c, recvCounts, es, e.carry, recv)
	if err != nil {
		return err
	}
	return pairwiseAllToAll(&e, 0, sOffs, rOffs, send, recv)
}

// uniformOffsets returns the p+1 byte offsets of p equal blk-byte blocks.
func uniformOffsets(p, blk int) []int {
	offs := make([]int, p+1)
	for i := 1; i <= p; i++ {
		offs[i] = offs[i-1] + blk
	}
	return offs
}

// pairwiseAllToAll runs the rotation schedule: the own block is copied
// locally, then step t = 1..p-1 sends block (me+t) to the node t to the
// right while receiving block me from the node t to the left. Every block
// travels directly: (p−1)α + ((p−1)/p)nβ, the bandwidth-optimal schedule.
func pairwiseAllToAll(e *env, phase uint32, sOffs, rOffs []int, send, recv []byte) error {
	p := e.p()
	me := e.me
	if sn, rn := sOffs[me+1]-sOffs[me], rOffs[me+1]-rOffs[me]; sn != rn {
		return fmt.Errorf("core: logical %d sends itself %d bytes but expects %d", me, sn, rn)
	}
	if e.carry {
		e.copyb(recv[rOffs[me]:rOffs[me+1]], send[sOffs[me]:sOffs[me+1]])
	}
	for t := 1; t < p; t++ {
		to := (me + t) % p
		from := (me - t + p) % p
		tg := e.tag(phase, t)
		if err := e.sendRecv(to, tg, sliceRange(e, send, sOffs[to], sOffs[to+1]), sOffs[to+1]-sOffs[to],
			from, tg, sliceRange(e, recv, rOffs[from], rOffs[from+1]), rOffs[from+1]-rOffs[from]); err != nil {
			return err
		}
	}
	return nil
}

// bruckAllToAll runs the Bruck store-and-forward relay. A local rotation
// places the block destined to node (me+j) mod p in slot j; then for each
// bit b, the step k = 2^b forwards every slot whose index has bit b set to
// node me+k (receiving the corresponding slots from node me−k). A block in
// slot j thus advances exactly j positions around the ring — one hop per
// set bit of j — so after ⌈log₂p⌉ steps slot j holds the block from node
// (me−j) mod p, and an inverse rotation delivers recv. Each step relays at
// most ⌈p/2⌉ blocks: ⌈log₂p⌉ (α + (n/2)β) on a power of two.
func bruckAllToAll(e *env, phase uint32, send, recv []byte, count, es int) error {
	p := e.p()
	blk := count * es
	me := e.me
	if p == 1 {
		if e.carry {
			e.copyb(recv[:blk], send[:blk])
		}
		return nil
	}
	work := e.alloc(p * blk)
	if e.carry {
		for j := 0; j < p; j++ {
			src := (me + j) % p
			e.copyb(work[j*blk:(j+1)*blk], send[src*blk:(src+1)*blk])
		}
	}
	maxCnt := 0
	for k := 1; k < p; k <<= 1 {
		if cnt := model.BruckRelayBlocks(p, k); cnt > maxCnt {
			maxCnt = cnt
		}
	}
	sbuf := e.alloc(maxCnt * blk)
	rbuf := e.alloc(maxCnt * blk)
	step := 0
	for k := 1; k < p; k <<= 1 {
		nb := model.BruckRelayBlocks(p, k) * blk
		if e.carry {
			at := 0
			for j := 1; j < p; j++ {
				if j&k != 0 {
					e.copyb(sbuf[at:at+blk], work[j*blk:(j+1)*blk])
					at += blk
				}
			}
		}
		to := (me + k) % p
		from := (me - k + p) % p
		e.stepOverhead()
		tg := e.tag(phase, step)
		if err := e.sendRecv(to, tg, sliceRange(e, sbuf, 0, nb), nb,
			from, tg, sliceRange(e, rbuf, 0, nb), nb); err != nil {
			return err
		}
		if e.carry {
			at := 0
			for j := 1; j < p; j++ {
				if j&k != 0 {
					e.copyb(work[j*blk:(j+1)*blk], rbuf[at:at+blk])
					at += blk
				}
			}
		}
		step++
	}
	if e.carry {
		for src := 0; src < p; src++ {
			j := (me - src + p) % p
			e.copyb(recv[src*blk:(src+1)*blk], work[j*blk:(j+1)*blk])
		}
	}
	return nil
}
