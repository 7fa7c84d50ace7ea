package core

// The two long-vector primitives of §4.2. Both view the member list as a
// ring around which fixed-size buckets circulate: every node simultaneously
// sends to its right neighbour and receives from its left one, exploiting
// the machine's concurrent send+receive. Rightward traffic rides the
// forward channels and the single wrap-around message rides the otherwise
// idle reverse channels, so on a linear array no conflicts occur.

// bucketCollect is the ring collect: each member starts with its own
// segment in place (bytes [offs[me], offs[me+1]) of buf) and after p-1
// bucket steps every member holds the whole range:
// (p-1)α + ((p-1)/p) nβ.
func bucketCollect(e *env, phase uint32, offs []int, buf span) {
	p := e.p()
	me := e.me
	right := (me + 1) % p
	left := (me + p - 1) % p
	for t := 0; t < p-1; t++ {
		sIdx := ((me-t)%p + p) % p
		rIdx := ((me-t-1)%p + p) % p
		tg := e.tag(phase, t)
		e.sendRecv(right, tg, buf.sub(offs[sIdx], offs[sIdx+1]),
			left, tg, buf.sub(offs[rIdx], offs[rIdx+1]))
	}
}

// bucketReduceScatter is the bucket distributed global combine: buckets
// circulate the ring accumulating contributions, and after p-1 steps member
// i holds segment i of the fully combined vector, in place:
// (p-1)α + ((p-1)/p) n(β+γ). Every member's buf must hold its full-range
// contribution on entry; only the member's own segment is meaningful on
// return.
func bucketReduceScatter(e *env, phase uint32, offs []int, buf span) {
	p := e.p()
	if p <= 1 {
		return
	}
	me := e.me
	right := (me + 1) % p
	left := (me + p - 1) % p
	seg := func(i int) span { return buf.sub(offs[i], offs[i+1]) }
	maxSeg := 0
	for i := 0; i < p; i++ {
		maxSeg = max(maxSeg, offs[i+1]-offs[i])
	}
	scratch := [2]span{e.alloc(maxSeg), e.alloc(maxSeg)}
	// First outgoing bucket: my raw contribution to segment me-1.
	cur := seg((me + p - 1) % p)
	for t := 0; t < p-1; t++ {
		mine := seg(((me-t-2)%p + p) % p)
		rbuf := scratch[t%2].sub(0, mine.n)
		tg := e.tag(phase, t)
		e.sendRecv(right, tg, cur, left, tg, rbuf)
		// Fold my own contribution into the passing bucket.
		e.combine(rbuf, mine)
		cur = rbuf
	}
	// cur now holds segment me fully combined; land it in place.
	e.copyb(seg(me), cur)
}
