// Package core implements the paper's collective communication algorithms:
// the four short-vector primitives (MST broadcast, combine-to-one, scatter,
// gather — §4.1), the two long-vector bucket primitives (collect and
// distributed combine — §4.2), the derived short and long algorithms of §5,
// and the general hybrid algorithms of §6 driven by the Fig. 3 template.
//
// Every algorithm is written against a member list — an ordered array of
// transport ranks giving the logical-to-physical mapping (§9) — so the same
// code serves whole-machine collectives, row/column collectives inside a
// hybrid stage, and user-defined group collectives.
//
// The algorithms are plan builders: they never touch a transport. Each one
// appends the sends, receives, combines and copies this node performs to the
// plan under construction, addressing data as spans of the plan's buffer
// spaces; Plan.Execute (plan.go) is the one place steps meet an endpoint.
package core

import (
	"repro/internal/model"
	"repro/internal/transport"
)

// span names n bytes at offset off of one of a plan's buffer spaces — what
// the builders pass where an executing algorithm would pass a []byte, so
// building a plan costs the same whatever the payload size.
type span struct {
	space  space
	off, n int
}

// sub is s[lo:hi].
func (s span) sub(lo, hi int) span { return span{s.space, s.off + lo, hi - lo} }

func (s span) ref() bufRef {
	if s.n == 0 {
		return bufRef{space: spaceNone}
	}
	return bufRef{space: s.space, off: s.off}
}

// prog is the plan under construction: the steps emitted so far and the
// scratch arena handed out. Every env of one build shares it.
type prog struct {
	steps      []step
	scratchLen int
}

// env is the builder's view of one group: the group's member list and this
// node's logical index in it, the tag namespace of the invocation, and the
// plan the group's steps go to.
type env struct {
	members []int // members[i] = transport rank of logical node i
	me      int   // my logical index
	coll    uint32
	// phaseOff offsets every phase this env emits, so that the stages of a
	// hierarchical collective — each of which runs a complete flat
	// collective with its own phase numbering — occupy disjoint tag ranges.
	phaseOff uint32
	// unstriped disables the striped leader phase of the hierarchical
	// all-reduce, forcing the reduce/broadcast fallback (for comparison
	// sweeps).
	unstriped bool
	out       *prog
}

func (e *env) p() int { return len(e.members) }

// tag builds the message tag for a phase and step of this invocation.
func (e *env) tag(phase uint32, step int) transport.Tag {
	return transport.Compose(e.coll, e.phaseOff+phase, uint32(step))
}

func (e *env) emit(st step) { e.out.steps = append(e.out.steps, st) }

// send transmits s to logical node to.
func (e *env) send(to int, tag transport.Tag, s span) {
	e.emit(step{op: opSend, peer: e.members[to], tag: tag, a: s.ref(), n: s.n})
}

// recv receives exactly r.n bytes from logical node from into r.
func (e *env) recv(from int, tag transport.Tag, r span) {
	e.emit(step{op: opRecv, peer: e.members[from], tag: tag, a: r.ref(), n: r.n})
}

// sendRecv simultaneously sends s to logical node to and receives r from
// logical node from.
func (e *env) sendRecv(to int, stag transport.Tag, s span, from int, rtag transport.Tag, r span) {
	e.emit(step{
		op:   opSendRecv,
		peer: e.members[to], tag: stag, a: s.ref(), n: s.n,
		peer2: e.members[from], tag2: rtag, b: r.ref(), n2: r.n,
	})
}

// alloc carves n bytes from the plan's scratch arena.
func (e *env) alloc(n int) span {
	s := span{spaceScratch, e.out.scratchLen, n}
	e.out.scratchLen += n
	return s
}

// copyb copies src into dst; it is free in the model, so no time is charged
// (the paper's algorithms are arranged so data lands in place). A copy that
// continues the previous one — both ranges adjacent to its — extends that
// step instead of adding one, provided the grown ranges stay disjoint (a
// second copy may read what the first wrote): the block-by-block packing
// loops of the complete exchange emit mostly such runs.
func (e *env) copyb(dst, src span) {
	n := min(dst.n, src.n)
	if n == 0 {
		return
	}
	if k := len(e.out.steps) - 1; k >= 0 {
		last := &e.out.steps[k]
		if last.op == opCopy && last.a == (bufRef{dst.space, dst.off - last.n}) && last.b == (bufRef{src.space, src.off - last.n}) &&
			(dst.space != src.space || dst.off+n <= last.b.off || src.off+n <= last.a.off) {
			last.n += n
			return
		}
	}
	e.emit(step{op: opCopy, a: dst.ref(), b: src.ref(), n: n})
}

// combine applies dst ⊕= src over src.n bytes of elements, charging nγ of
// virtual compute time.
func (e *env) combine(dst, src span) {
	e.emit(step{op: opCombine, a: dst.ref(), b: src.ref(), n: src.n})
}

// stepOverhead charges the per-recursion-level software cost of the
// short-vector primitives (§7.2: "recursive function calls, which carry a
// measurable overhead"). The MST primitives call it once per tree level a
// node engages in; the flat bucket loops do not pay it, matching the cost
// model.
func (e *env) stepOverhead() { e.emit(step{op: opElapse}) }

// dimEnv restricts the environment to this node's group in logical
// dimension d of shape s: the members sharing every other coordinate. The
// returned env's member list maps the dimension's logical indices 0..Size-1
// to transport ranks, and phase disambiguates its messages.
func (e *env) dimEnv(d model.Dim) env {
	x := (e.me / d.Stride) % d.Size
	base := e.me - x*d.Stride
	members := make([]int, d.Size)
	for t := 0; t < d.Size; t++ {
		members[t] = e.members[base+t*d.Stride]
	}
	sub := *e
	sub.members, sub.me = members, x
	return sub
}
