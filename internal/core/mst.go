package core

// The four short-vector primitives of §4.1, built on recursive halving of
// the member list: the group [lo, hi) is split into halves, the root's
// counterpart in the other half is seeded, and each half recurses. Halving
// works for any group size (no power-of-two requirement) and, on a linear
// array, keeps each step's messages inside disjoint subarrays, so no
// network conflicts occur. Each primitive takes ⌈log₂ p⌉ steps.
//
// Range-based primitives (scatter, gather, bucket ops) address data through
// a table of absolute byte offsets offs[0..p] into the span buf; every node
// passes the same coordinate range, which is how hybrid stages operate in
// place on the user's vector.

// halves splits [lo, hi) at mid and returns the half roots given the
// current root r: the half containing r keeps it; the other half's new
// root is its first member.
func halves(lo, hi, r int) (mid, leftRoot, rightRoot int) {
	mid = lo + (hi-lo+1)/2
	if r < mid {
		return mid, r, mid
	}
	return mid, lo, r
}

// mstBcast broadcasts buf from logical root to every member:
// ⌈log₂p⌉ (α + nβ).
func mstBcast(e *env, phase uint32, root int, buf span) {
	lo, hi, r := 0, e.p(), root
	me := e.me
	for step := 0; hi-lo > 1; step++ {
		mid, lr, rr := halves(lo, hi, r)
		from, to := r, lr
		if r < mid {
			to = rr
		}
		t := e.tag(phase, step)
		switch me {
		case from:
			e.stepOverhead()
			e.send(to, t, buf)
		case to:
			e.stepOverhead()
			e.recv(from, t, buf)
		}
		if me < mid {
			hi, r = mid, lr
		} else {
			lo, r = mid, rr
		}
	}
}

// mstReduce combines every member's contribution in buf to the logical
// root (the combine-to-one of §4.1): the broadcast run in reverse with ⊕
// interleaved, ⌈log₂p⌉ (α + nβ + nγ). On return the root's buf holds the
// combined vector; other members' buffers hold partial results. tmp
// provides buf.n bytes of scratch.
func mstReduce(e *env, phase uint32, root int, buf, tmp span) {
	me := e.me
	var rec func(lo, hi, r, depth int)
	rec = func(lo, hi, r, depth int) {
		if hi-lo <= 1 {
			return
		}
		mid, lr, rr := halves(lo, hi, r)
		if me < mid {
			rec(lo, mid, lr, depth+1)
		} else {
			rec(mid, hi, rr, depth+1)
		}
		// The half not containing r forwards its combined result to r.
		from := lr
		if r < mid {
			from = rr
		}
		t := e.tag(phase, depth)
		switch me {
		case from:
			e.stepOverhead()
			e.send(r, t, buf)
		case r:
			e.stepOverhead()
			e.recv(from, t, tmp)
			e.combine(buf, tmp)
		}
	}
	rec(0, e.p(), root, 0)
}

// mstScatter distributes segment i (bytes [offs[i], offs[i+1]) of buf)
// from the root to logical node i, forwarding at each halving step only
// the data destined for the other half: ⌈log₂p⌉ α + ((p-1)/p) nβ. The
// root's buf must hold the whole range; receiving nodes' ranges are filled
// in place.
func mstScatter(e *env, phase uint32, root int, offs []int, buf span) {
	me := e.me
	lo, hi, r := 0, e.p(), root
	for step := 0; hi-lo > 1; step++ {
		mid, lr, rr := halves(lo, hi, r)
		from, to, slo, shi := r, lr, lo, mid
		if r < mid {
			to, slo, shi = rr, mid, hi
		}
		t := e.tag(phase, step)
		switch me {
		case from:
			e.stepOverhead()
			e.send(to, t, buf.sub(offs[slo], offs[shi]))
		case to:
			e.stepOverhead()
			e.recv(from, t, buf.sub(offs[slo], offs[shi]))
		}
		if me < mid {
			hi, r = mid, lr
		} else {
			lo, r = mid, rr
		}
	}
}

// mstGather is the scatter run in reverse (§4.1), same cost: each member's
// segment i of the coordinate range is assembled at the root.
func mstGather(e *env, phase uint32, root int, offs []int, buf span) {
	me := e.me
	var rec func(lo, hi, r, depth int)
	rec = func(lo, hi, r, depth int) {
		if hi-lo <= 1 {
			return
		}
		mid, lr, rr := halves(lo, hi, r)
		if me < mid {
			rec(lo, mid, lr, depth+1)
		} else {
			rec(mid, hi, rr, depth+1)
		}
		from, slo, shi := lr, lo, mid
		if r < mid {
			from, slo, shi = rr, mid, hi
		}
		t := e.tag(phase, depth)
		switch me {
		case from:
			e.stepOverhead()
			e.send(r, t, buf.sub(offs[slo], offs[shi]))
		case r:
			e.stepOverhead()
			e.recv(from, t, buf.sub(offs[slo], offs[shi]))
		}
	}
	rec(0, e.p(), root, 0)
}
