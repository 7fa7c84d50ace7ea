package core

import (
	"fmt"

	"repro/internal/datatype"
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

// BuildAllToAll builds the complete exchange with equal per-pair counts
// under shape s: ShortFrom 0 (every dimension short) selects the Bruck
// relay, any other switch point the pairwise schedule, and Hier the
// hierarchical composition. Buf is the send vector (p blocks of count
// elements), Tmp the receive vector; they must not overlap.
func BuildAllToAll(c Ctx, s model.Shape, count, es int) (*Plan, error) {
	e, err := c.begin()
	if err != nil {
		return nil, err
	}
	if err := checkCountES(count, es); err != nil {
		return nil, err
	}
	send, recv := vectors(e.p() * count * es)
	if s.Hier {
		ht, ms, herr := c.hierN()
		if herr != nil {
			return nil, herr
		}
		hierAllToAll(&e, ht, ms, send, recv, count, es)
	} else if err := s.Validate(e.p()); err != nil {
		return nil, err
	} else if s.ShortFrom == 0 {
		bruckAllToAll(&e, 0, send, recv, count, es)
	} else {
		offs := uniformOffsets(e.p(), count*es)
		pairwiseAllToAll(&e, 0, offs, offs, send, recv)
	}
	return e.out.finish(send.n, datatype.Uint8, datatype.Sum), nil
}

// BuildAllToAllv builds the complete exchange with per-pair counts: node i
// sends sendCounts[j] elements to node j and receives recvCounts[j]
// elements from node j (so rank i's sendCounts[j] must equal rank j's
// recvCounts[i]). It is the pairwise schedule only: the Bruck relay and
// the hierarchical funnel forward other nodes' blocks, which requires the
// full count matrix the interface (deliberately, like MPI_Alltoallv) does
// not provide — BuildHierAllToAllv takes that matrix. Buf is the send
// vector, Tmp the receive vector.
func BuildAllToAllv(c Ctx, sendCounts, recvCounts []int, es int) (*Plan, error) {
	e, err := c.begin()
	if err != nil {
		return nil, err
	}
	sOffs, err := countOffsets(e.p(), sendCounts, es)
	if err != nil {
		return nil, err
	}
	rOffs, err := countOffsets(e.p(), recvCounts, es)
	if err != nil {
		return nil, err
	}
	if sn, rn := sOffs[e.me+1]-sOffs[e.me], rOffs[e.me+1]-rOffs[e.me]; sn != rn {
		return nil, fmt.Errorf("core: logical %d sends itself %d bytes but expects %d", e.me, sn, rn)
	}
	send, recv := span{spaceBuf, 0, sOffs[e.p()]}, span{spaceTmp, 0, rOffs[e.p()]}
	pairwiseAllToAll(&e, 0, sOffs, rOffs, send, recv)
	return e.out.finish(send.n, datatype.Uint8, datatype.Sum), nil
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
func pairwiseAllToAll(e *env, phase uint32, sOffs, rOffs []int, send, recv span) {
	p := e.p()
	me := e.me
	e.copyb(recv.sub(rOffs[me], rOffs[me+1]), send.sub(sOffs[me], sOffs[me+1]))
	for t := 1; t < p; t++ {
		to := (me + t) % p
		from := (me - t + p) % p
		tg := e.tag(phase, t)
		e.sendRecv(to, tg, send.sub(sOffs[to], sOffs[to+1]),
			from, tg, recv.sub(rOffs[from], rOffs[from+1]))
	}
}

// bruckAllToAll runs the Bruck store-and-forward relay. A local rotation
// places the block destined to node (me+j) mod p in slot j; then for each
// bit b, the step k = 2^b forwards every slot whose index has bit b set to
// node me+k (receiving the corresponding slots from node me−k). A block in
// slot j thus advances exactly j positions around the ring — one hop per
// set bit of j — so after ⌈log₂p⌉ steps slot j holds the block from node
// (me−j) mod p, and an inverse rotation delivers recv. Each step relays at
// most ⌈p/2⌉ blocks: ⌈log₂p⌉ (α + (n/2)β) on a power of two.
func bruckAllToAll(e *env, phase uint32, send, recv span, count, es int) {
	p := e.p()
	blk := count * es
	me := e.me
	if p == 1 {
		e.copyb(recv.sub(0, blk), send.sub(0, blk))
		return
	}
	slot := func(s span, j int) span { return s.sub(j*blk, (j+1)*blk) }
	work := e.alloc(p * blk)
	for j := 0; j < p; j++ {
		e.copyb(slot(work, j), slot(send, (me+j)%p))
	}
	maxCnt := 0
	for k := 1; k < p; k <<= 1 {
		maxCnt = max(maxCnt, model.BruckRelayBlocks(p, k))
	}
	sbuf := e.alloc(maxCnt * blk)
	rbuf := e.alloc(maxCnt * blk)
	step := 0
	for k := 1; k < p; k <<= 1 {
		nb := model.BruckRelayBlocks(p, k) * blk
		at := 0
		for j := 1; j < p; j++ {
			if j&k != 0 {
				e.copyb(slot(sbuf, at), slot(work, j))
				at++
			}
		}
		to := (me + k) % p
		from := (me - k + p) % p
		e.stepOverhead()
		tg := e.tag(phase, step)
		e.sendRecv(to, tg, sbuf.sub(0, nb), from, tg, rbuf.sub(0, nb))
		at = 0
		for j := 1; j < p; j++ {
			if j&k != 0 {
				e.copyb(slot(work, j), slot(rbuf, at))
				at++
			}
		}
		step++
	}
	for src := 0; src < p; src++ {
		e.copyb(slot(recv, src), slot(work, (me-src+p)%p))
	}
}
