package core

import (
	"fmt"
	"sort"

	"repro/internal/datatype"
	"repro/internal/model"
)

// Hypercube algorithms — the ones InterCom's iPSC/860 version used (§11),
// including the Ho–Johnsson edge-disjoint spanning tree broadcast that §8
// discusses as "theoretically superior" to scatter/collect for long
// vectors. All of them require the group size to be a power of two; they
// run on any transport but only realize their conflict-free cost on a
// native hypercube interconnect (simnet.Config.Hypercube).

// cubeDim returns d with p = 2^d, or an error.
func cubeDim(p int) (int, error) {
	if p <= 0 || p&(p-1) != 0 {
		return 0, fmt.Errorf("core: hypercube algorithm needs a power-of-two group, got %d", p)
	}
	d := 0
	for 1<<d < p {
		d++
	}
	return d, nil
}

// BuildEDSTBcast builds the broadcast of count elements of size es from root using d
// edge-disjoint spanning trees (Ho & Johnsson [7]): the vector is split
// into d parts, part t travelling down tree t. Tree t sends part t from
// the root to its dimension-t neighbour, doubles it through the
// bit-t-set subcube in rotated dimension order, and finally flips it
// across dimension t to the bit-t-clear half. The d trees use disjoint
// directed cube edges, so on a native hypercube all parts move
// concurrently and the asymptotic cost approaches nβ — twice as fast as
// scatter/collect. Every operation carries a (tree, global step) schedule
// position; each node executes its operations in schedule order, which
// makes the composite deadlock-free under synchronous sends. Buf is the
// vector.
func BuildEDSTBcast(c Ctx, root, count, es int) (*Plan, error) {
	e, err := c.begin()
	if err != nil {
		return nil, err
	}
	p := e.p()
	if err := checkRoot(root, p); err != nil {
		return nil, err
	}
	if err := checkCountES(count, es); err != nil {
		return nil, err
	}
	d, err := cubeDim(p)
	if err != nil {
		return nil, err
	}
	buf, _ := vectors(count * es)
	a := e.me ^ root // relative address

	type cubeOp struct {
		step, tree int
		send       bool
		peer       int // logical index
	}
	var ops []cubeOp
	pos := func(t, j int) int { return (j - t + d) % d } // rotated position
	for t := 0; t < d; t++ {
		switch {
		case a == 0:
			ops = append(ops, cubeOp{step: t, tree: t, send: true, peer: root ^ (1 << t)})
		case a&(1<<t) != 0:
			// Set half: receive from the doubling parent, forward along
			// later rotated dimensions, then flip across dimension t.
			h := 0
			for j := 0; j < d; j++ {
				if a&(1<<j) != 0 && pos(t, j) > h {
					h = pos(t, j)
				}
			}
			jh := (t + h) % d // bit at the maximal rotated position
			parent := a ^ (1 << jh)
			ops = append(ops, cubeOp{step: t + h, tree: t, send: false, peer: parent ^ root})
			for s := h + 1; s < d; s++ {
				child := a | 1<<((t+s)%d)
				ops = append(ops, cubeOp{step: t + s, tree: t, send: true, peer: child ^ root})
			}
			if a != 1<<t { // flip (the root already has everything)
				ops = append(ops, cubeOp{step: t + d, tree: t, send: true, peer: (a ^ (1 << t)) ^ root})
			}
		default:
			// Clear half: receive the flipped copy.
			ops = append(ops, cubeOp{step: t + d, tree: t, send: false, peer: (a | 1<<t) ^ root})
		}
	}
	// Emit in global (step, tree) order — identical on every node, and
	// matching pairs share the same position, so waits are well-founded.
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].step != ops[j].step {
			return ops[i].step < ops[j].step
		}
		return ops[i].tree < ops[j].tree
	})
	for _, o := range ops {
		lo, hi := splitPart(0, count, d, o.tree)
		part := buf.sub(lo*es, hi*es)
		tg := e.tag(uint32(o.tree), o.step)
		e.stepOverhead()
		if o.send {
			e.send(o.peer, tg, part)
		} else {
			e.recv(o.peer, tg, part)
		}
	}
	return e.out.finish(buf.n, datatype.Uint8, datatype.Sum), nil
}

// EDSTBcastCost approximates the EDST broadcast's time: 2d startup steps
// plus an asymptotic β term of (1+1/d)nβ (the busiest node — the root —
// serializes all d parts; set-half nodes forward up to d parts of n/d).
func EDSTBcastCost(m model.Machine, p, nBytes int) float64 {
	if p <= 1 {
		return 0
	}
	d := 0
	for 1<<d < p {
		d++
	}
	n := float64(nBytes)
	return float64(2*d)*(m.Alpha+m.StepOverhead) + n*m.Beta*(1+1/float64(d))
}

// rdCollect is the recursive-doubling collect: at step s each node
// exchanges its accumulated aligned block with its dimension-s partner,
// doubling the assembled range. Cost on a native hypercube:
// dα + ((p-1)/p)nβ — the bucket collect's bandwidth at logarithmic
// latency, but only conflict-free on cube interconnects. offs are the
// p+1 absolute byte offsets; each node's own segment must be in place.
func rdCollect(e *env, d int, offs []int, buf span) {
	me := e.me
	for s := 0; s < d; s++ {
		size := 1 << s
		partner := me ^ size
		myLo := me &^ (size - 1) // current assembled block start
		paLo := partner &^ (size - 1)
		tg := e.tag(0, s)
		e.sendRecv(partner, tg, buf.sub(offs[myLo], offs[myLo+size]),
			partner, tg, buf.sub(offs[paLo], offs[paLo+size]))
	}
}

// BuildRDCollect builds the recursive-doubling collect of counts[i]
// es-byte elements per node on a power-of-two group. Buf spans the whole
// vector.
func BuildRDCollect(c Ctx, counts []int, es int) (*Plan, error) {
	e, d, offs, err := c.beginCube(counts, es)
	if err != nil {
		return nil, err
	}
	buf, _ := vectors(offs[len(offs)-1])
	rdCollect(&e, d, offs, buf)
	return e.out.finish(buf.n, datatype.Uint8, datatype.Sum), nil
}

// RDCollectCost is the native-hypercube cost of RDCollect.
func RDCollectCost(m model.Machine, p, nBytes int) float64 {
	if p <= 1 {
		return 0
	}
	d := 0
	for 1<<d < p {
		d++
	}
	f := float64(p-1) / float64(p)
	return float64(d)*m.Alpha + f*float64(nBytes)*m.Beta
}

// rhReduceScatter is the recursive-halving distributed combine: at each
// step a node sends the half of its current block belonging to its
// partner's side and combines the received half into its own, halving the
// block until only its own segment remains. Cost on a native hypercube:
// dα + ((p-1)/p)n(β+γ). buf holds a full contribution on entry; the
// node's own segment is combined in place on return. tmp spans the whole
// vector.
func rhReduceScatter(e *env, d int, offs []int, buf, tmp span) {
	me := e.me
	for s := d - 1; s >= 0; s-- {
		size := 1 << s
		partner := me ^ size
		blockLo := me &^ (2*size - 1)
		myLo, paLo := blockLo, blockLo+size
		if me&size != 0 {
			myLo, paLo = blockLo+size, blockLo
		}
		tg := e.tag(1, s)
		rb := tmp.sub(offs[myLo], offs[myLo+size])
		e.sendRecv(partner, tg, buf.sub(offs[paLo], offs[paLo+size]), partner, tg, rb)
		e.combine(buf.sub(offs[myLo], offs[myLo+size]), rb)
	}
}

// BuildRHReduceScatter builds the recursive-halving distributed combine on
// a power-of-two group. Buf is the full contribution, Tmp the scratch.
func BuildRHReduceScatter(c Ctx, counts []int, dt datatype.Type, op datatype.Op) (*Plan, error) {
	e, d, offs, err := c.beginCube(counts, dt.Size())
	if err != nil {
		return nil, err
	}
	buf, tmp := vectors(offs[len(offs)-1])
	rhReduceScatter(&e, d, offs, buf, tmp)
	return e.out.finish(buf.n, dt, op), nil
}

// BuildHypercubeAllReduce builds recursive halving followed by recursive
// doubling — the classic hypercube combine-to-all: 2dα + 2((p-1)/p)nβ +
// ((p-1)/p)nγ on a native cube. The two phases use disjoint tag phase
// fields, so one Coll id serves.
func BuildHypercubeAllReduce(c Ctx, count int, dt datatype.Type, op datatype.Op) (*Plan, error) {
	if err := checkCountES(count, dt.Size()); err != nil {
		return nil, err
	}
	e, d, offs, err := c.beginCube(equalCounts(count, len(c.Members)), dt.Size())
	if err != nil {
		return nil, err
	}
	buf, tmp := vectors(offs[len(offs)-1])
	rhReduceScatter(&e, d, offs, buf, tmp)
	rdCollect(&e, d, offs, buf)
	return e.out.finish(buf.n, dt, op), nil
}

// beginCube opens a plan on a power-of-two group whose vector is
// partitioned by counts: the env, the cube dimension and the byte offsets.
func (c Ctx) beginCube(counts []int, es int) (e env, d int, offs []int, err error) {
	if e, err = c.begin(); err != nil {
		return
	}
	if offs, err = countOffsets(e.p(), counts, es); err != nil {
		return
	}
	d, err = cubeDim(e.p())
	return
}
