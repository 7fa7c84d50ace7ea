package core

import (
	"fmt"

	"repro/internal/group"
	"repro/internal/model"
)

// Hierarchical collectives over N-level topologies. The paper builds every
// collective from composable building blocks; this file composes those
// same blocks recursively over a nested partition (rack → node → socket):
// an intra phase runs inside each deepest block, leader phases ascend one
// level at a time, and redistribution descends. Each phase is a complete
// flat collective over a sub-group, built by the existing hybrid
// machinery, so the short/long/hybrid menu of §4–§6 is reused per level
// rather than reimplemented. The two-level (cluster) schedule is exactly
// the depth-1 case.
//
// Data placement: broadcast, reduce and all-reduce move whole vectors, so
// any placement works in place. The partitioned collectives (collect,
// reduce-scatter, the striped all-reduce) address blocks as byte ranges,
// which requires the topology's depth-first member order to be the
// identity; other placements run the recursion over a canonically
// relabeled group — all-reduce and all-to-all by pure relabeling, collect
// and reduce-scatter through a pack/unpack detour into plan scratch.

// hierStagePhases is the tag-phase stride between the stages of one
// hierarchy level, so each stage's inner flat collective gets a disjoint
// phase range. hierLevelPhases is the stride between recursion levels:
// four stage slots per level. Stages at one level reuse the deeper window
// sequentially, which is safe because every transport delivers per-pair
// FIFO and all ranks execute stages in the same order. group.MaxDepth
// bounds the recursion so the deepest window stays inside the 8-bit
// phase field.
const (
	hierStagePhases = 8
	hierLevelPhases = 4 * hierStagePhases
)

// machs is the per-level machine parameter list, coarsest first; at
// clamps to the deepest entry, so a two-entry [Global, Local] list prices
// any depth.
type machs []model.Machine

func (ms machs) at(l int) model.Machine {
	if l >= len(ms) {
		l = len(ms) - 1
	}
	return ms[l]
}

// hierN resolves the invocation's topology and per-level machines.
func (c Ctx) hierN() (group.Topology, machs, error) {
	if c.Topology == nil {
		return group.Topology{}, nil, fmt.Errorf("core: hierarchical shape without a cluster partition")
	}
	t := *c.Topology
	if err := t.Validate(len(c.Members)); err != nil {
		return group.Topology{}, nil, err
	}
	switch {
	case c.Hierarchy != nil && len(c.Hierarchy.Machines) > 0:
		return t, machs(c.Hierarchy.Machines), nil
	case c.Machine != nil:
		return t, machs{*c.Machine}, nil
	}
	return t, machs{model.ParagonLike()}, nil
}

// sub returns block k's internal topology, or nil when t is depth-1 (its
// blocks are flat member sets).
func subTopo(t *group.Topology, k int) *group.Topology {
	if t.Depth() <= 1 {
		return nil
	}
	s := t.Sub(k)
	return &s
}

// subEnv restricts e to the listed logical indices (of e's own index
// space), offsetting tag phases by phaseOff. ok reports whether this node
// is a member; non-members skip the phase.
func subEnv(e *env, idxs []int, phaseOff uint32) (env, bool) {
	me := -1
	members := make([]int, len(idxs))
	for t, ix := range idxs {
		members[t] = e.members[ix]
		if ix == e.me {
			me = t
		}
	}
	sub := *e
	sub.members, sub.me, sub.phaseOff = members, me, e.phaseOff+phaseOff
	return sub, me >= 0
}

// linShape views q nodes as one logical dimension; shortFrom 0 selects the
// short (MST) algorithm, 1 the long (bucket) algorithm.
func linShape(q, shortFrom int) model.Shape {
	return model.Shape{Dims: []model.Dim{{Size: q, Stride: 1, Conflict: 1}}, ShortFrom: shortFrom}
}

// phaseShape picks the cheaper fixed endpoint — short (MST) or long
// (bucket) — for one phase of a hierarchical collective: collective coll
// over q nodes moving n bytes on machine m. This mirrors the per-level
// choices of model.Hierarchy.Cost; the menus must stay aligned for the
// planner's hierarchy-versus-flat decision to be trustworthy.
func phaseShape(m model.Machine, coll model.Collective, q, n int) model.Shape {
	nf := float64(n)
	var short, long float64
	switch coll {
	case model.Bcast:
		short, long = m.MSTBcast(q, nf, 1), m.LongBcast(q, nf, 1)
	case model.Reduce:
		short, long = m.MSTReduce(q, nf, 1), m.LongReduce(q, nf, 1)
	case model.AllReduce:
		short, long = m.ShortAllReduce(q, nf, 1), m.LongAllReduce(q, nf, 1)
	case model.Collect:
		short, long = m.ShortCollect(q, nf, 1), m.BucketCollect(q, nf, 1)
	case model.ReduceScatter:
		short, long = m.ShortReduceScatter(q, nf, 1), m.BucketReduceScatter(q, nf, 1)
	case model.AllToAll:
		short, long = m.ShortAllToAll(q, nf, 1), m.LongAllToAll(q, nf, 1)
	default:
		return linShape(q, 0)
	}
	if long < short {
		return linShape(q, 1)
	}
	return linShape(q, 0)
}

// indexOf returns the position of idx in the ascending-or-not list.
func indexOf(list []int, idx int) int {
	for t, v := range list {
		if v == idx {
			return t
		}
	}
	return -1
}

// reps returns the leader-level group: each cluster's leader, except that
// root's cluster is represented by root itself, so rooted collectives pay
// no extra hop moving data between root and its cluster's leader.
func reps(cl group.Cluster, root int) []int {
	r := append([]int(nil), cl.Leaders()...)
	r[cl.Of(root)] = root
	return r
}

// isIdentity reports whether ord is 0,1,2,...
func isIdentity(ord []int) bool {
	for j, o := range ord {
		if j != o {
			return false
		}
	}
	return true
}

// canonTopology rebuilds t over the permuted index space in which
// position j is occupied by original index ord[j]. For ord = t.RecOrder()
// the result is recursively contiguous, which lets the partitioned
// recursion address every block as a byte range.
func canonTopology(t group.Topology, ord []int) group.Topology {
	asg := t.Assignments()
	for l := range asg {
		lv := make([]int, len(ord))
		for j, o := range ord {
			lv[j] = asg[l][o]
		}
		asg[l] = lv
	}
	ct, err := group.NewTopology(asg...)
	if err != nil {
		// A permutation of a valid nested partition stays valid.
		panic(err)
	}
	return ct
}

// contigOffs re-slices a group's absolute offsets to a contiguous member
// run — valid only after canonicalization.
func contigOffs(offs []int, mem []int) []int {
	return offs[mem[0] : mem[len(mem)-1]+2]
}

// clusterOffs returns the K+1 byte offsets of the cluster blocks of a
// contiguous partition — offs restricted to cluster boundaries.
func clusterOffs(cl group.Cluster, offs []int) []int {
	lo := make([]int, cl.K()+1)
	for k := 0; k < cl.K(); k++ {
		lo[k] = offs[cl.Members(k)[0]]
	}
	lo[cl.K()] = offs[len(offs)-1]
	return lo
}

// bcastTree broadcasts from root over the topology: a leader-level
// broadcast among block representatives descends into a recursive
// broadcast inside each block. Whole vectors move, so any placement runs
// in place.
func bcastTree(e *env, t *group.Topology, ms machs, lvl, root int, buf span, count, es int) error {
	n := count * es
	if t == nil {
		s := phaseShape(ms.at(lvl), model.Bcast, e.p(), n)
		return hybridBcast(e, s, root, buf, count, es)
	}
	cl := t.Top()
	rp := reps(cl, root)
	if sub, ok := subEnv(e, rp, 0); ok {
		s := phaseShape(ms.at(lvl), model.Bcast, cl.K(), n)
		if err := hybridBcast(&sub, s, cl.Of(root), buf, count, es); err != nil {
			return err
		}
	}
	myC := cl.Of(e.me)
	mem := cl.Members(myC)
	if len(mem) > 1 {
		se, _ := subEnv(e, mem, hierLevelPhases)
		return bcastTree(&se, subTopo(t, myC), ms, lvl+1, indexOf(mem, rp[myC]), buf, count, es)
	}
	return nil
}

// reduceTree combines every contribution at root: recursive combines
// ascend to block representatives, then a leader-level combine lands at
// root.
func reduceTree(e *env, t *group.Topology, ms machs, lvl, root int, buf, tmp span, count, es int) error {
	n := count * es
	if t == nil {
		s := phaseShape(ms.at(lvl), model.Reduce, e.p(), n)
		return hybridReduce(e, s, root, buf, tmp, count, es)
	}
	cl := t.Top()
	rp := reps(cl, root)
	myC := cl.Of(e.me)
	mem := cl.Members(myC)
	if len(mem) > 1 {
		se, _ := subEnv(e, mem, hierLevelPhases)
		if err := reduceTree(&se, subTopo(t, myC), ms, lvl+1, indexOf(mem, rp[myC]), buf, tmp, count, es); err != nil {
			return err
		}
	}
	if sub, ok := subEnv(e, rp, 0); ok {
		s := phaseShape(ms.at(lvl), model.Reduce, cl.K(), n)
		if err := hybridReduce(&sub, s, cl.Of(root), buf, tmp, count, es); err != nil {
			return err
		}
	}
	return nil
}

// hierAllReduce combines every contribution on every node. With equal
// block sizes the leader phase is striped across block members: each
// block reduce-scatters its vector, the members at the same position
// across blocks all-reduce their stripe concurrently (using the whole
// uplink pipeline instead of one leader rank), and each block collects
// the stripes back. Unequal blocks — or an explicit Unstriped request —
// fall back to reduce-to-representative, leader all-reduce, broadcast.
// All-reduce is symmetric, so non-contiguous placements are handled by
// pure relabeling along the topology's depth-first order.
func hierAllReduce(e *env, t group.Topology, ms machs, buf, tmp span, count, es int) error {
	if ord := t.RecOrder(); !isIdentity(ord) {
		ce, _ := subEnv(e, ord, 0)
		ct := canonTopology(t, ord)
		return allReduceTree(&ce, &ct, ms, 0, buf, tmp, count, es)
	}
	return allReduceTree(e, &t, ms, 0, buf, tmp, count, es)
}

func allReduceTree(e *env, t *group.Topology, ms machs, lvl int, buf, tmp span, count, es int) error {
	n := count * es
	if t == nil {
		s := phaseShape(ms.at(lvl), model.AllReduce, e.p(), n)
		return hybridAllReduce(e, s, buf, tmp, count, es)
	}
	cl := t.Top()
	K := cl.K()
	sizes := cl.Sizes()
	equal := true
	for _, s := range sizes {
		if s != sizes[0] {
			equal = false
		}
	}
	myC := cl.Of(e.me)
	mem := cl.Members(myC)
	if equal && len(mem) > 1 && K > 1 && !e.unstriped {
		// Striped leader phase. Stripe j of the vector is owned by the
		// member at position j of each block; the q same-position peer
		// groups are disjoint, so their leader-level all-reduces share
		// nothing but the uplink — which is exactly the contention the
		// striping pipelines.
		q := len(mem)
		cnts := equalCounts(count, q)
		offs := make([]int, q+1)
		for i, c := range cnts {
			offs[i+1] = offs[i] + c*es
		}
		myPos := indexOf(mem, e.me)
		se, _ := subEnv(e, mem, hierLevelPhases)
		if err := rsTree(&se, subTopo(t, myC), ms, lvl+1, offs, buf, tmp, es); err != nil {
			return err
		}
		if cnts[myPos] > 0 {
			peers := make([]int, K)
			for k := 0; k < K; k++ {
				peers[k] = cl.Members(k)[myPos]
			}
			pe, _ := subEnv(e, peers, hierStagePhases)
			// Price the algorithm choice with the full vector, not the
			// stripe: the q concurrent stripe all-reduces share each
			// block's uplink, so the phase is bandwidth-bound even when a
			// single stripe would look latency-bound (this mirrors
			// Hierarchy.allReduceTree).
			s := phaseShape(ms.at(lvl), model.AllReduce, K, n)
			if err := hybridAllReduce(&pe, s,
				buf.sub(offs[myPos], offs[myPos+1]), tmp.sub(offs[myPos], offs[myPos+1]),
				cnts[myPos], es); err != nil {
				return err
			}
		}
		se3, _ := subEnv(e, mem, hierLevelPhases)
		return collectTree(&se3, subTopo(t, myC), ms, lvl+1, offs, buf)
	}
	// Unstriped: combine at block representatives, all-reduce among them,
	// broadcast back down.
	if len(mem) > 1 {
		se, _ := subEnv(e, mem, hierLevelPhases)
		if err := reduceTree(&se, subTopo(t, myC), ms, lvl+1, 0, buf, tmp, count, es); err != nil {
			return err
		}
	}
	if lsub, ok := subEnv(e, cl.Leaders(), hierStagePhases); ok {
		s := phaseShape(ms.at(lvl), model.AllReduce, K, n)
		if err := hybridAllReduce(&lsub, s, buf, tmp, count, es); err != nil {
			return err
		}
	}
	if len(mem) > 1 {
		se, _ := subEnv(e, mem, hierLevelPhases)
		return bcastTree(&se, subTopo(t, myC), ms, lvl+1, 0, buf, count, es)
	}
	return nil
}

// canonOffs returns the byte offsets of the segments reordered so that
// position j holds original index ord[j]'s segment.
func canonOffs(offs, ord []int) []int {
	coffs := make([]int, len(offs))
	for j, o := range ord {
		coffs[j+1] = coffs[j] + offs[o+1] - offs[o]
	}
	return coffs
}

// hierCollect assembles every node's segment on all nodes: recursive
// gathers assemble each block's range at its leader, leaders collect the
// block ranges, and the whole vector broadcasts back down inside each
// block. Non-contiguous placements pack into canonically ordered scratch,
// run the contiguous recursion, and unpack.
func hierCollect(e *env, t group.Topology, ms machs, offs []int, buf span) error {
	ord := t.RecOrder()
	if isIdentity(ord) {
		return collectTree(e, &t, ms, 0, offs, buf)
	}
	ce, _ := subEnv(e, ord, 0)
	ct := canonTopology(t, ord)
	coffs := canonOffs(offs, ord)
	scratch := e.alloc(buf.n)
	e.copyb(scratch.sub(coffs[ce.me], coffs[ce.me+1]), buf.sub(offs[e.me], offs[e.me+1]))
	if err := collectTree(&ce, &ct, ms, 0, coffs, scratch); err != nil {
		return err
	}
	for j, o := range ord {
		e.copyb(buf.sub(offs[o], offs[o+1]), scratch.sub(coffs[j], coffs[j+1]))
	}
	return nil
}

// collectTree assumes canonical (recursively contiguous) positions and
// offs[0] == 0: offs[j] is member j's absolute byte offset into buf.
func collectTree(e *env, t *group.Topology, ms machs, lvl int, offs []int, buf span) error {
	total := offs[len(offs)-1]
	if t == nil {
		s := phaseShape(ms.at(lvl), model.Collect, e.p(), total)
		return hybridCollect(e, s, offs, buf)
	}
	cl := t.Top()
	myC := cl.Of(e.me)
	mem := cl.Members(myC)
	if len(mem) > 1 {
		se, _ := subEnv(e, mem, hierLevelPhases)
		gatherRec(&se, subTopo(t, myC), contigOffs(offs, mem), buf)
	}
	if e.me == mem[0] && cl.K() > 1 {
		lsub, _ := subEnv(e, cl.Leaders(), hierStagePhases)
		s := phaseShape(ms.at(lvl), model.Collect, cl.K(), total)
		if err := hybridCollect(&lsub, s, clusterOffs(cl, offs), buf); err != nil {
			return err
		}
	}
	if len(mem) > 1 {
		se, _ := subEnv(e, mem, hierLevelPhases)
		return bcastTree(&se, subTopo(t, myC), ms, lvl+1, 0, buf, total, 1)
	}
	return nil
}

// hierReduceScatter combines every node's full contribution and leaves
// segment i on node i: recursive combines ascend to block leaders,
// leaders run the distributed combine over block ranges, and recursive
// scatters descend member segments. Non-contiguous placements go through
// the same pack detour as collect.
func hierReduceScatter(e *env, t group.Topology, ms machs, offs []int, buf, tmp span, es int) error {
	ord := t.RecOrder()
	if isIdentity(ord) {
		return rsTree(e, &t, ms, 0, offs, buf, tmp, es)
	}
	ce, _ := subEnv(e, ord, 0)
	ct := canonTopology(t, ord)
	coffs := canonOffs(offs, ord)
	scratch := e.alloc(buf.n)
	for j, o := range ord {
		e.copyb(scratch.sub(coffs[j], coffs[j+1]), buf.sub(offs[o], offs[o+1]))
	}
	if err := rsTree(&ce, &ct, ms, 0, coffs, scratch, tmp, es); err != nil {
		return err
	}
	e.copyb(buf.sub(offs[e.me], offs[e.me+1]), scratch.sub(coffs[ce.me], coffs[ce.me+1]))
	return nil
}

// rsTree assumes canonical positions and offs[0] == 0.
func rsTree(e *env, t *group.Topology, ms machs, lvl int, offs []int, buf, tmp span, es int) error {
	total := offs[len(offs)-1]
	if t == nil {
		s := phaseShape(ms.at(lvl), model.ReduceScatter, e.p(), total)
		return hybridReduceScatter(e, s, offs, buf, tmp)
	}
	cl := t.Top()
	myC := cl.Of(e.me)
	mem := cl.Members(myC)
	if len(mem) > 1 {
		se, _ := subEnv(e, mem, hierLevelPhases)
		if err := reduceTree(&se, subTopo(t, myC), ms, lvl+1, 0, buf, tmp, total/es, es); err != nil {
			return err
		}
	}
	if e.me == mem[0] && cl.K() > 1 {
		lsub, _ := subEnv(e, cl.Leaders(), hierStagePhases)
		s := phaseShape(ms.at(lvl), model.ReduceScatter, cl.K(), total)
		if err := hybridReduceScatter(&lsub, s, clusterOffs(cl, offs), buf, tmp); err != nil {
			return err
		}
	}
	if len(mem) > 1 {
		se, _ := subEnv(e, mem, hierLevelPhases)
		scatterRec(&se, subTopo(t, myC), contigOffs(offs, mem), buf)
	}
	return nil
}

// gatherRec assembles the group's byte range at its first member: gathers
// recurse inside sub-blocks, then an MST gather runs among sub-leaders.
// Gather has no short/long choice, so no machine parameters are needed.
func gatherRec(e *env, t *group.Topology, offs []int, buf span) {
	if t == nil {
		mstGather(e, 0, 0, offs, buf)
		return
	}
	cl := t.Top()
	myC := cl.Of(e.me)
	mem := cl.Members(myC)
	if len(mem) > 1 {
		se, _ := subEnv(e, mem, hierLevelPhases)
		gatherRec(&se, subTopo(t, myC), contigOffs(offs, mem), buf)
	}
	if e.me == mem[0] && cl.K() > 1 {
		lsub, _ := subEnv(e, cl.Leaders(), 0)
		mstGather(&lsub, 0, 0, clusterOffs(cl, offs), buf)
	}
}

// scatterRec is gatherRec in reverse: sub-leaders receive their block
// ranges first, then the scatter recurses inside each block.
func scatterRec(e *env, t *group.Topology, offs []int, buf span) {
	if t == nil {
		mstScatter(e, 0, 0, offs, buf)
		return
	}
	cl := t.Top()
	myC := cl.Of(e.me)
	mem := cl.Members(myC)
	if e.me == mem[0] && cl.K() > 1 {
		lsub, _ := subEnv(e, cl.Leaders(), 0)
		mstScatter(&lsub, 0, 0, clusterOffs(cl, offs), buf)
	}
	if len(mem) > 1 {
		se, _ := subEnv(e, mem, hierLevelPhases)
		scatterRec(&se, subTopo(t, myC), contigOffs(offs, mem), buf)
	}
}
