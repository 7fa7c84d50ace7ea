package core

import (
	"fmt"

	"repro/internal/datatype"
	"repro/internal/group"
	"repro/internal/model"
)

// Hierarchical complete exchange. Members funnel their whole personalized
// vectors up to their top-level block leader (recursively, one hop per
// hierarchy level), leaders run a complete exchange of block-pair
// aggregates over the top-level network — replacing the Θ(p) coarse-network
// messages every rank pays under a flat schedule with Θ(K) aggregated
// messages per leader — and the reassembled results funnel back down.
//
// The ragged variant (BuildHierAllToAllv) is the one schedule of the
// library that depends on data — the per-pair counts of the other ranks —
// so it is built per call from the p×p count matrix, which the caller
// first assembles on every rank with an ordinary collect.

// hierAllToAll builds the complete exchange with equal per-pair counts
// over the topology. Non-contiguous placements are handled by pure
// relabeling along the depth-first order: the exchange is defined by the
// partition, not by byte ranges, so only the pack/unpack index arithmetic
// needs the translation — buffers stay in the original layout.
func hierAllToAll(e *env, t group.Topology, ms machs, send, recv span, count, es int) {
	ord := t.RecOrder()
	if isIdentity(ord) {
		allToAllTree(e, &t, ms, 0, nil, send, recv, count, es)
		return
	}
	ce, _ := subEnv(e, ord, 0)
	ct := canonTopology(t, ord)
	allToAllTree(&ce, &ct, ms, 0, ord, send, recv, count, es)
}

// ordAt translates a canonical position to its original index (nil ord =
// identity).
func ordAt(ord []int, j int) int {
	if ord == nil {
		return j
	}
	return ord[j]
}

// allToAllTree assumes canonical positions: block d's members are the
// contiguous run start[d]..start[d+1] and position 0 leads block 0. ord
// translates canonical positions back to original indices, because each
// rank's send and recv vectors remain laid out by original
// destination/source index.
func allToAllTree(e *env, t *group.Topology, ms machs, lvl int, ord []int, send, recv span, count, es int) {
	p := e.p()
	blk := count * es
	n := p * blk
	cl := t.Top()
	K := cl.K()
	sizes := cl.Sizes()
	start := make([]int, K+1)
	equal := true
	for d := 0; d < K; d++ {
		start[d+1] = start[d] + sizes[d]
		if sizes[d] != sizes[0] {
			equal = false
		}
	}
	myC := cl.Of(e.me)
	mem := cl.Members(myC)
	q := len(mem)
	leader := mem[0]

	// gbuf[j*n:(j+1)*n] is block member j's whole vector, gathered at the
	// leader; after the leader exchange it is reused to assemble member j's
	// result vector.
	var gbuf span
	if e.me == leader {
		gbuf = e.alloc(q * n)
	}

	// Stage 1: funnel members' vectors to the block leader.
	se, _ := subEnv(e, mem, hierLevelPhases)
	upGatherVec(&se, subTopo(t, myC), n, send, gbuf)

	if e.me == leader {
		// Stage 2: leaders exchange aggregated block-pair vectors. The
		// aggregate for destination block d holds, sender-member-major,
		// every (my member j → d's member u) sub-block; both sides derive
		// the same layout from the shared partition. Uneven block sizes
		// force the pairwise schedule (the Bruck relay needs equal
		// blocks), matching model.Hierarchy.Cost.
		bOffs := make([]int, K+1)
		for d := 0; d < K; d++ {
			bOffs[d+1] = bOffs[d] + q*sizes[d]*blk
		}
		out, in := e.alloc(q*n), e.alloc(q*n)
		at := 0
		for d := 0; d < K; d++ {
			for j := 0; j < q; j++ {
				for u := start[d]; u < start[d+1]; u++ {
					o := ordAt(ord, u)
					e.copyb(out.sub(at, at+blk), gbuf.sub(j*n+o*blk, j*n+(o+1)*blk))
					at += blk
				}
			}
		}
		lsub, _ := subEnv(e, cl.Leaders(), hierStagePhases)
		if s := phaseShape(ms.at(lvl), model.AllToAll, K, q*n); equal && s.ShortFrom == 0 {
			bruckAllToAll(&lsub, 0, out, in, q*q*count, es)
		} else {
			pairwiseAllToAll(&lsub, 0, bOffs, bOffs, out, in)
		}
		// Reassemble each member's result vector in source order (the self
		// block came back via the exchange's local copy).
		for j := 0; j < q; j++ {
			for d := 0; d < K; d++ {
				for u := start[d]; u < start[d+1]; u++ {
					o := ordAt(ord, u)
					src := bOffs[d] + ((u-start[d])*q+j)*blk
					e.copyb(gbuf.sub(j*n+o*blk, j*n+(o+1)*blk), in.sub(src, src+blk))
				}
			}
		}
	}

	// Stage 3: funnel the reassembled vectors back down.
	se2, _ := subEnv(e, mem, hierLevelPhases)
	downScatterVec(&se2, subTopo(t, myC), n, recv, gbuf)
}

// upGatherVec funnels every group member's n-byte vector to the group's
// position-0 member: on return agg[j*n:(j+1)*n] holds member j's vector
// (depth-first order). Only position 0 passes agg. Sub-aggregates are
// forwarded whole, one message per block per level — linear at each level,
// like the leader funnel of the two-level schedule, priced by
// model.Hierarchy's a2aEdge.
func upGatherVec(e *env, t *group.Topology, n int, send, agg span) {
	q := e.p()
	if t == nil {
		if e.me != 0 {
			e.stepOverhead()
			e.send(0, e.tag(0, e.me), send.sub(0, n))
			return
		}
		e.copyb(agg.sub(0, n), send.sub(0, n))
		for j := 1; j < q; j++ {
			e.stepOverhead()
			e.recv(j, e.tag(0, j), agg.sub(j*n, (j+1)*n))
		}
		return
	}
	cl := t.Top()
	K := cl.K()
	sizes := cl.Sizes()
	myC := cl.Of(e.me)
	mem := cl.Members(myC)
	se, _ := subEnv(e, mem, hierLevelPhases)
	switch e.me {
	case 0:
		// Top of this level: own block's members occupy agg's first
		// sizes[0] slots (block 0 is the leading canonical run), then each
		// sub-leader forwards its block's aggregate.
		upGatherVec(&se, subTopo(t, 0), n, send, agg)
		at := sizes[0]
		for d := 1; d < K; d++ {
			e.stepOverhead()
			e.recv(cl.Members(d)[0], e.tag(0, d), agg.sub(at*n, (at+sizes[d])*n))
			at += sizes[d]
		}
	case mem[0]:
		sub := e.alloc(sizes[myC] * n)
		upGatherVec(&se, subTopo(t, myC), n, send, sub)
		e.stepOverhead()
		e.send(0, e.tag(0, myC), sub)
	default:
		upGatherVec(&se, subTopo(t, myC), n, send, span{})
	}
}

// downScatterVec is upGatherVec in reverse: position 0 holds every
// member's n-byte result vector in agg, and each member's vector lands in
// its recv buffer.
func downScatterVec(e *env, t *group.Topology, n int, recv, agg span) {
	q := e.p()
	if t == nil {
		if e.me != 0 {
			e.stepOverhead()
			e.recv(0, e.tag(2*hierStagePhases, e.me), recv.sub(0, n))
			return
		}
		e.copyb(recv.sub(0, n), agg.sub(0, n))
		for j := 1; j < q; j++ {
			e.stepOverhead()
			e.send(j, e.tag(2*hierStagePhases, j), agg.sub(j*n, (j+1)*n))
		}
		return
	}
	cl := t.Top()
	K := cl.K()
	sizes := cl.Sizes()
	myC := cl.Of(e.me)
	mem := cl.Members(myC)
	se, _ := subEnv(e, mem, hierLevelPhases)
	switch e.me {
	case 0:
		at := sizes[0]
		for d := 1; d < K; d++ {
			e.stepOverhead()
			e.send(cl.Members(d)[0], e.tag(2*hierStagePhases, d), agg.sub(at*n, (at+sizes[d])*n))
			at += sizes[d]
		}
		downScatterVec(&se, subTopo(t, 0), n, recv, agg)
	case mem[0]:
		sub := e.alloc(sizes[myC] * n)
		e.stepOverhead()
		e.recv(0, e.tag(2*hierStagePhases, myC), sub)
		downScatterVec(&se, subTopo(t, myC), n, recv, sub)
	default:
		downScatterVec(&se, subTopo(t, myC), n, recv, span{})
	}
}

// BuildHierAllToAllv builds the ragged complete exchange over the
// topology's top partition, on the original (possibly non-contiguous)
// placement, from the full count matrix: counts[v*p+u] is the number of
// es-byte elements rank v sends rank u, identical on every rank. Stage 0:
// members hand their send vectors to the block leader. Stage 1: leaders run
// a ragged pairwise exchange of aggregated cluster-pair blocks,
// sender-member-major, sizes read off the shared matrix. Stage 2: leaders
// reassemble per-member result vectors in source-index order and deliver
// them. Buf is the send vector, Tmp the receive vector. The plan is valid
// for this count matrix only.
func BuildHierAllToAllv(c Ctx, counts []int, es int) (*Plan, error) {
	e, err := c.begin()
	if err != nil {
		return nil, err
	}
	t, _, err := c.hierN()
	if err != nil {
		return nil, err
	}
	p := e.p()
	if len(counts) != p*p {
		return nil, fmt.Errorf("core: %d-entry count matrix for group of %d", len(counts), p)
	}
	for _, n := range counts {
		if n < 0 {
			return nil, fmt.Errorf("core: negative count %d in all-to-allv matrix", n)
		}
	}
	if es <= 0 {
		return nil, fmt.Errorf("core: element size %d", es)
	}
	cnt := func(from, to int) int { return counts[from*p+to] * es }
	// sent and rcvd are a rank's total bytes out and in.
	sent := func(i int) (b int) {
		for u := 0; u < p; u++ {
			b += cnt(i, u)
		}
		return b
	}
	rcvd := func(i int) (b int) {
		for v := 0; v < p; v++ {
			b += cnt(v, i)
		}
		return b
	}
	send, recv := span{spaceBuf, 0, sent(e.me)}, span{spaceTmp, 0, rcvd(e.me)}

	cl := t.Top()
	K := cl.K()
	mem := cl.Members(cl.Of(e.me))
	q := len(mem)
	leader := mem[0]
	myPos := indexOf(mem, e.me)

	if e.me != leader {
		e.stepOverhead()
		e.send(leader, e.tag(0, myPos), send)
		e.stepOverhead()
		e.recv(leader, e.tag(2*hierStagePhases, myPos), recv)
		return e.out.finish(send.n, datatype.Uint8, datatype.Sum), nil
	}

	// Stage 0: collect my members' vectors. gOff and resOff place member
	// pos's send vector in gbuf and its result vector in res.
	gOff := make([]int, q+1)
	resOff := make([]int, q+1)
	for pos, i := range mem {
		gOff[pos+1] = gOff[pos] + sent(i)
		resOff[pos+1] = resOff[pos] + rcvd(i)
	}
	gbuf := e.alloc(gOff[q])
	e.copyb(gbuf.sub(gOff[myPos], gOff[myPos+1]), send)
	for pos, i := range mem {
		if pos != myPos {
			e.stepOverhead()
			e.recv(i, e.tag(0, pos), gbuf.sub(gOff[pos], gOff[pos+1]))
		}
	}

	// Stage 1: ragged pairwise exchange of aggregated cluster-pair blocks.
	// The block sent to cluster d is my members (sender-major) × d's
	// members; the block received from d mirrors it with roles swapped —
	// both sides read the sizes off the same matrix.
	sAgg := make([]int, K+1)
	rAgg := make([]int, K+1)
	for d := 0; d < K; d++ {
		sb, rb := 0, 0
		for _, i := range mem {
			for _, u := range cl.Members(d) {
				sb += cnt(i, u)
				rb += cnt(u, i)
			}
		}
		sAgg[d+1] = sAgg[d] + sb
		rAgg[d+1] = rAgg[d] + rb
	}
	out, in := e.alloc(sAgg[K]), e.alloc(rAgg[K])
	// Within gbuf, member pos's block for destination u starts at
	// sPref[pos][u].
	sPref := make([][]int, q)
	for pos, i := range mem {
		sp := make([]int, p+1)
		sp[0] = gOff[pos]
		for u := 0; u < p; u++ {
			sp[u+1] = sp[u] + cnt(i, u)
		}
		sPref[pos] = sp
	}
	at := 0
	for d := 0; d < K; d++ {
		for pos, i := range mem {
			for _, u := range cl.Members(d) {
				nb := cnt(i, u)
				e.copyb(out.sub(at, at+nb), gbuf.sub(sPref[pos][u], sPref[pos][u]+nb))
				at += nb
			}
		}
	}
	lsub, _ := subEnv(&e, cl.Leaders(), hierStagePhases)
	pairwiseAllToAll(&lsub, 0, sAgg, rAgg, out, in)

	// Stage 2: assemble each member's result vector in source-index order
	// (the self block came back via the exchange's local copy) and deliver.
	// Within member pos's result, the block from source v starts at
	// rPref[pos][v].
	rPref := make([][]int, q)
	for pos, i := range mem {
		rp := make([]int, p+1)
		rp[0] = resOff[pos]
		for v := 0; v < p; v++ {
			rp[v+1] = rp[v] + cnt(v, i)
		}
		rPref[pos] = rp
	}
	res := e.alloc(resOff[q])
	for d := 0; d < K; d++ {
		at := rAgg[d]
		for _, v := range cl.Members(d) {
			for pos, i := range mem {
				nb := cnt(v, i)
				e.copyb(res.sub(rPref[pos][v], rPref[pos][v]+nb), in.sub(at, at+nb))
				at += nb
			}
		}
	}
	e.copyb(recv, res.sub(resOff[myPos], resOff[myPos+1]))
	for pos, i := range mem {
		if pos != myPos {
			e.stepOverhead()
			e.send(i, e.tag(2*hierStagePhases, pos), res.sub(resOff[pos], resOff[pos+1]))
		}
	}
	return e.out.finish(send.n, datatype.Uint8, datatype.Sum), nil
}
