package main

import (
	"encoding/binary"
	"math"

	icc "repro"
)

// Every payload is a float64 vector of small whole numbers, so a sum of
// four is exact whatever order the library combines in, and every value is
// a function of (seed, op, source, position, round): inputs change each
// round, and a stale or misplaced block cannot pass for a correct one.

func val(seed int64, op, src, pos, round int) float64 {
	return float64((int(seed%997)*31 + op*131 + src*1009 + pos*7 + round*13) % 1021)
}

func putF64(b []byte, i int, v float64) {
	binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
}

func getF64(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
}

// positions returns the element indices written and checked each round
// for a vector of elems elements: all of them up to 8192 elements (64 KiB),
// a stride of about elems/512 beyond, always ending on the last element.
func positions(elems int) []int {
	stride := 1
	if elems > 8192 {
		stride = 1 + elems/512
	}
	var pos []int
	for i := 0; i < elems; i += stride {
		pos = append(pos, i)
	}
	if n := len(pos); n > 0 && pos[n-1] != elems-1 {
		pos = append(pos, elems-1)
	}
	return pos
}

// step is one timed library call of an op; f receives the round number.
type step struct {
	kind spanKind
	f    func(round int) error
}

// op is one collective of a workload's round, bound to preallocated
// buffers on one rank. fill writes the round's inputs and clears the
// sampled outputs, steps run inside the timer, check verifies outside it.
type op struct {
	name  string // span name; icc.<name>_p50_us on short_blocking
	n     int    // vector length in bytes, for goodput
	fill  func(round int)
	steps []step
	check func(round int) bool
}

// builder makes one rank's ops. A persistent builder binds each op to
// handles initialized at build time — one per root for a rooted collective,
// since a plan bakes its root in — and a blocking one calls the collective
// directly. Either way the root rotates with the round.
type builder struct {
	c          *icc.Comm
	seed       int64
	persistent bool
	nextOp     int
	err        error // first *Init failure
}

func (b *builder) p() int  { return b.c.Size() }
func (b *builder) me() int { return b.c.Rank() }

func (b *builder) root(round int) int {
	p := b.p()
	return ((round+int(b.seed%int64(p)))%p + p) % p // warm-up rounds are negative
}

func (b *builder) id() int { b.nextOp++; return b.nextOp }

// finish wires the timed steps: the blocking call, or Start and Wait on the
// handles init returns. A rooted op has a handle per root, an unrooted one
// a single handle (init sees root 0); init nil means the collective has no
// persistent form.
func (b *builder) finish(o op, rooted bool, call func(round int) error, init func(root int) (*icc.Persistent, error)) op {
	if !b.persistent || init == nil {
		o.steps = []step{{kCall, call}}
		return o
	}
	handles := make([]*icc.Persistent, 1)
	if rooted {
		handles = make([]*icc.Persistent, b.p())
	}
	for root := range handles {
		h, err := init(root)
		if err != nil {
			if b.err == nil {
				b.err = err
			}
			return o
		}
		handles[root] = h
	}
	handle := func(round int) *icc.Persistent { return handles[b.root(round)%len(handles)] }
	o.steps = []step{
		{kStart, func(t int) error { return handle(t).Start() }},
		{kWait, func(t int) error { return handle(t).Wait() }},
	}
	return o
}

func offsets(counts []int) []int {
	offs := make([]int, len(counts)+1)
	for i, c := range counts {
		offs[i+1] = offs[i] + c
	}
	return offs
}

func equal(count, p int) []int {
	counts := make([]int, p)
	for i := range counts {
		counts[i] = count
	}
	return counts
}

// bpos is one sampled position of a vector cut into blocks: block j,
// position i within it, position g within the whole vector.
type bpos struct{ j, i, g int }

// blockPositions samples every block of a vector cut by offs. Computed at
// build time, so filling and checking allocate nothing.
func blockPositions(offs []int) []bpos {
	var out []bpos
	for j := 0; j+1 < len(offs); j++ {
		for _, i := range positions(offs[j+1] - offs[j]) {
			out = append(out, bpos{j, i, offs[j] + i})
		}
	}
	return out
}

func (b *builder) bcast(count int) op {
	k, buf, pos := b.id(), make([]byte, 8*count), positions(count)
	o := op{name: "bcast", n: 8 * count}
	o.fill = func(t int) {
		for _, i := range pos {
			v := -1.0
			if b.me() == b.root(t) {
				v = val(b.seed, k, b.root(t), i, t)
			}
			putF64(buf, i, v)
		}
	}
	o.check = func(t int) bool {
		for _, i := range pos {
			if getF64(buf, i) != val(b.seed, k, b.root(t), i, t) {
				return false
			}
		}
		return true
	}
	return b.finish(o, true,
		func(t int) error { return b.c.Bcast(buf, count, icc.Float64, b.root(t)) },
		func(root int) (*icc.Persistent, error) { return b.c.BcastInit(buf, count, icc.Float64, root) })
}

// reduction builds Reduce (rooted) or AllReduce.
func (b *builder) reduction(count int, rooted bool) op {
	k, send, recv, pos := b.id(), make([]byte, 8*count), make([]byte, 8*count), positions(count)
	o := op{name: "allreduce", n: 8 * count}
	if rooted {
		o.name = "reduce"
	}
	o.fill = func(t int) {
		for _, i := range pos {
			putF64(send, i, val(b.seed, k, b.me(), i, t))
			putF64(recv, i, -1)
		}
	}
	o.check = func(t int) bool {
		if rooted && b.me() != b.root(t) {
			return true
		}
		for _, i := range pos {
			want := 0.0
			for r := 0; r < b.p(); r++ {
				want += val(b.seed, k, r, i, t)
			}
			if getF64(recv, i) != want {
				return false
			}
		}
		return true
	}
	if rooted {
		return b.finish(o, true,
			func(t int) error { return b.c.Reduce(send, recv, count, icc.Float64, icc.Sum, b.root(t)) },
			func(root int) (*icc.Persistent, error) {
				return b.c.ReduceInit(send, recv, count, icc.Float64, icc.Sum, root)
			})
	}
	return b.finish(o, false,
		func(int) error { return b.c.AllReduce(send, recv, count, icc.Float64, icc.Sum) },
		func(int) (*icc.Persistent, error) { return b.c.AllReduceInit(send, recv, count, icc.Float64, icc.Sum) })
}

// scatter builds Scatter (counts nil: count elements each) or Scatterv.
func (b *builder) scatter(count int, counts []int) op {
	name := "scatterv"
	if counts == nil {
		name, counts = "scatter", equal(count, b.p())
	}
	offs := offsets(counts)
	mine := counts[b.me()]
	k, send, recv, pos := b.id(), make([]byte, 8*offs[b.p()]), make([]byte, 8*mine), positions(mine)
	spos := blockPositions(offs)
	o := op{name: name, n: 8 * offs[b.p()]}
	o.fill = func(t int) {
		if b.me() == b.root(t) {
			for _, q := range spos {
				putF64(send, q.g, val(b.seed, k, q.j, q.i, t))
			}
		}
		for _, i := range pos {
			putF64(recv, i, -1)
		}
	}
	o.check = func(t int) bool {
		for _, i := range pos {
			if getF64(recv, i) != val(b.seed, k, b.me(), i, t) {
				return false
			}
		}
		return true
	}
	if name == "scatterv" {
		return b.finish(o, true, func(t int) error { return b.c.Scatterv(send, counts, recv, icc.Float64, b.root(t)) }, nil)
	}
	return b.finish(o, true,
		func(t int) error { return b.c.Scatter(send, recv, count, icc.Float64, b.root(t)) },
		func(root int) (*icc.Persistent, error) { return b.c.ScatterInit(send, recv, count, icc.Float64, root) })
}

// assemble builds the four block-assembling collectives: Gather/Gatherv
// (rooted) and Collect/Collectv, equal counts when counts is nil.
func (b *builder) assemble(count int, counts []int, rooted bool) op {
	name := "collect"
	if rooted {
		name = "gather"
	}
	ragged := counts != nil
	if ragged {
		name += "v"
	} else {
		counts = equal(count, b.p())
	}
	offs := offsets(counts)
	mine := counts[b.me()]
	k, send, recv, pos := b.id(), make([]byte, 8*mine), make([]byte, 8*offs[b.p()]), positions(mine)
	rpos := blockPositions(offs)
	o := op{name: name, n: 8 * offs[b.p()]}
	o.fill = func(t int) {
		for _, i := range pos {
			putF64(send, i, val(b.seed, k, b.me(), i, t))
		}
		for _, q := range rpos {
			putF64(recv, q.g, -1)
		}
	}
	o.check = func(t int) bool {
		if rooted && b.me() != b.root(t) {
			return true
		}
		for _, q := range rpos {
			if getF64(recv, q.g) != val(b.seed, k, q.j, q.i, t) {
				return false
			}
		}
		return true
	}
	switch {
	case rooted && ragged:
		return b.finish(o, true, func(t int) error { return b.c.Gatherv(send, counts, recv, icc.Float64, b.root(t)) }, nil)
	case rooted:
		return b.finish(o, true,
			func(t int) error { return b.c.Gather(send, recv, count, icc.Float64, b.root(t)) },
			func(root int) (*icc.Persistent, error) { return b.c.GatherInit(send, recv, count, icc.Float64, root) })
	case ragged:
		return b.finish(o, false, func(int) error { return b.c.Collectv(send, counts, recv, icc.Float64) }, nil)
	}
	return b.finish(o, false,
		func(int) error { return b.c.Collect(send, recv, count, icc.Float64) },
		func(int) (*icc.Persistent, error) { return b.c.CollectInit(send, recv, count, icc.Float64) })
}

func (b *builder) reduceScatter(counts []int) op {
	offs := offsets(counts)
	total, lo, mine := offs[b.p()], offs[b.me()], counts[b.me()]
	k, send, recv := b.id(), make([]byte, 8*total), make([]byte, 8*mine)
	pos := positions(total)
	o := op{name: "reducescatter", n: 8 * total}
	o.fill = func(t int) {
		for _, g := range pos {
			putF64(send, g, val(b.seed, k, b.me(), g, t))
			if g >= lo && g < lo+mine {
				putF64(recv, g-lo, -1)
			}
		}
	}
	o.check = func(t int) bool {
		for _, g := range pos {
			if g < lo || g >= lo+mine {
				continue
			}
			want := 0.0
			for r := 0; r < b.p(); r++ {
				want += val(b.seed, k, r, g, t)
			}
			if getF64(recv, g-lo) != want {
				return false
			}
		}
		return true
	}
	return b.finish(o, false, func(int) error { return b.c.ReduceScatter(send, counts, recv, icc.Float64, icc.Sum) }, nil)
}

// allToAll builds AllToAll (matrix nil: count elements per pair) or
// AllToAllv, where matrix[i][j] is what rank i sends rank j.
func (b *builder) allToAll(count int, matrix [][]int) op {
	name, p, me := "alltoallv", b.p(), b.me()
	if matrix == nil {
		name = "alltoall"
		matrix = make([][]int, p)
		for i := range matrix {
			matrix[i] = equal(count, p)
		}
	}
	sendCounts, recvCounts := matrix[me], make([]int, p)
	for j := range recvCounts {
		recvCounts[j] = matrix[j][me]
	}
	soffs, roffs := offsets(sendCounts), offsets(recvCounts)
	k, send, recv := b.id(), make([]byte, 8*soffs[p]), make([]byte, 8*roffs[p])
	spos, rpos := blockPositions(soffs), blockPositions(roffs)
	o := op{name: name, n: 8 * soffs[p]}
	o.fill = func(t int) {
		for _, q := range spos {
			putF64(send, q.g, val(b.seed, k, me*p+q.j, q.i, t))
		}
		for _, q := range rpos {
			putF64(recv, q.g, -1)
		}
	}
	o.check = func(t int) bool {
		for _, q := range rpos {
			if getF64(recv, q.g) != val(b.seed, k, q.j*p+me, q.i, t) {
				return false
			}
		}
		return true
	}
	if name == "alltoallv" {
		return b.finish(o, false, func(int) error { return b.c.AllToAllv(send, sendCounts, recv, recvCounts, icc.Float64) }, nil)
	}
	return b.finish(o, false,
		func(int) error { return b.c.AllToAll(send, recv, count, icc.Float64) },
		func(int) (*icc.Persistent, error) { return b.c.AllToAllInit(send, recv, count, icc.Float64) })
}

func (b *builder) barrier() op {
	o := op{name: "barrier", fill: func(int) {}, check: func(int) bool { return true }}
	return b.finish(o, false, func(int) error { return b.c.Barrier() }, func(int) (*icc.Persistent, error) { return b.c.BarrierInit() })
}

// sized suffixes the op's span name with a size label, for workloads that
// run one collective at two lengths.
func sized(o op, label string) op {
	o.name += "@" + label
	return o
}

// ragged splits total into p positive seeded parts.
func ragged(rng *splitmix, total, p int) []int {
	counts := equal(1, p)
	for left := total - p; left > 0; left-- {
		counts[rng.intn(p)]++
	}
	return counts
}

// splitmix is the seeded generator behind ragged counts and fault
// schedules (splitmix64: tiny, allocation-free, identical everywhere).
type splitmix struct{ s uint64 }

func newSplitmix(seed int64, stream int) *splitmix {
	return &splitmix{s: uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9}
}

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }
