package icc

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/transport"
)

// One way to execute a collective. Every public collective is described
// once, by a function that turns its arguments into a boundPlan: a cached
// core.Plan plus the user buffers it runs against. The three completion
// modes are three uses of that value — a blocking call runs it on the
// caller's goroutine, an I* call hands it to the progress goroutine, an
// *Init call keeps it in a handle — so validation, plan lookup, staging and
// execution exist in one copy, and nothing reaches the transport except
// through boundPlan.run → Plan.Execute.

// planKind names the collective a plan implements.
type planKind uint8

const (
	planBcast planKind = iota
	planReduce
	planAllReduce
	planScatter
	planGather
	planCollect
	planReduceScatter
	planAllToAll
	planAllToAllv
	planBarrier
	planBcastPipelined
	planBcastEDST
	planAllReduceHypercube
)

// partitioned reports whether the collective's vector is divided among the
// ranks (count then means elements per rank) rather than whole on each.
func (k planKind) partitioned() bool {
	switch k {
	case planScatter, planGather, planCollect, planReduceScatter, planAllToAll, planAllToAllv:
		return true
	}
	return false
}

// planKey identifies a cached plan. The cache lives on the communicator,
// whose group and machine are immutable, so the group need not be part of
// the key; root, layout, datatype and op pin everything else a plan bakes
// in. A ragged layout (per-rank counts) is keyed by a hash of the counts,
// and the cache entry's own copy of them settles a collision.
type planKey struct {
	kind   planKind
	ragged bool
	dt     Type
	op     Op
	root   int
	count  int    // elements (per rank, for a partitioned kind); 0 when ragged
	aux    uint64 // ragged: hash of the counts; pipelined broadcast: blocks asked for
}

// planEntry is a cached plan with what a hit needs besides the steps: the
// counts it was built for (ragged layouts only) and this rank's segment of
// the vector, so that a warmed call computes no offsets.
type planEntry struct {
	pl       *core.Plan
	counts   []int // sendCounts followed by recvCounts, for AllToAllv
	lo, mine int
}

// planCacheMax bounds the plans a communicator keeps. A program's working
// set of signatures is a few dozen (the benchmark's busiest workload has
// 31); a stream of ever-new count vectors must not grow the cache with it.
const planCacheMax = 64

// PlanCacheStats reports the communicator's plan-cache effectiveness.
type PlanCacheStats struct {
	// Entries is the number of distinct plans currently cached.
	Entries int
	// Hits and Misses count plan lookups that were served from the cache
	// versus built.
	Hits, Misses int64
}

// PlanCacheStats returns a snapshot of the plan cache counters.
func (c *Comm) PlanCacheStats() PlanCacheStats {
	c.planMu.Lock()
	entries := len(c.plans)
	c.planMu.Unlock()
	return PlanCacheStats{
		Entries: entries,
		Hits:    c.planHits.Load(),
		Misses:  c.planMiss.Load(),
	}
}

// hashCounts folds a count vector into h. It only has to spread the few
// layouts a program uses over the map; equal hashes are told apart by
// comparing the counts themselves.
func hashCounts(h uint64, counts []int) uint64 {
	for _, n := range counts {
		h = h*31 + uint64(n)
	}
	return h
}

// bind is the argument funnel of every collective: it runs the epoch guard,
// finds the plan for the call's signature — validating the counts and
// building it on first use — and binds it to the user's buffers. counts and
// counts2 are the per-rank element counts of a ragged layout (counts2 the
// receive side of an AllToAllv).
func (c *Comm) bind(key planKey, counts, counts2 []int, send, recv []byte) (boundPlan, error) {
	if err := c.guard(); err != nil {
		return boundPlan{}, err
	}
	if key.ragged {
		key.aux = hashCounts(hashCounts(0, counts), counts2)
	}
	p := c.Size()
	c.planMu.Lock()
	e, hit := c.plans[key]
	c.planMu.Unlock()
	if hit && key.ragged {
		// Same hash; only the same counts make it the same plan. Otherwise
		// rebuild, and let the newer plan have the slot.
		hit = len(counts) == p && slices.Equal(e.counts[:p], counts) && slices.Equal(e.counts[p:], counts2)
	}
	if hit {
		c.planHits.Add(1)
	} else {
		c.planMiss.Add(1)
		var err error
		if e, err = c.buildEntry(key, counts, counts2); err != nil {
			return boundPlan{}, err
		}
		c.planMu.Lock()
		if c.plans == nil {
			c.plans = make(map[planKey]planEntry)
		}
		if _, replacing := c.plans[key]; !replacing && len(c.plans) >= planCacheMax {
			for victim := range c.plans { // any one: map order is as good as a policy here
				delete(c.plans, victim)
				break
			}
		}
		c.plans[key] = e
		c.planMu.Unlock()
	}
	return boundPlan{c: c, kind: key.kind, pl: e.pl, send: send, recv: recv, root: key.root, lo: e.lo, mine: e.mine}, nil
}

// byteLen returns the byte length count·es·scale of a vector, rejecting
// negative counts and products that overflow int — arguments that would
// otherwise crash the process inside makeslice.
func byteLen(count, es, scale int) (int, error) {
	if count < 0 {
		return 0, fmt.Errorf("icc: negative count %d", count)
	}
	if es <= 0 {
		return 0, fmt.Errorf("icc: invalid element size %d", es)
	}
	if count > 0 && es > math.MaxInt/count {
		return 0, fmt.Errorf("icc: vector of %d × %d-byte elements overflows", count, es)
	}
	n := count * es
	if scale > 1 && n > 0 && scale > math.MaxInt/n {
		return 0, fmt.Errorf("icc: vector of %d × %d × %d bytes overflows", scale, count, es)
	}
	return n * scale, nil
}

// segment validates a ragged layout and returns, in bytes, this rank's
// segment [lo, lo+mine) of the vector and the vector's length.
func (c *Comm) segment(counts []int, es int) (lo, mine, total int, err error) {
	if len(counts) != c.Size() {
		return 0, 0, 0, fmt.Errorf("icc: %d counts for communicator of %d", len(counts), c.Size())
	}
	for i, n := range counts {
		if n < 0 {
			return 0, 0, 0, fmt.Errorf("icc: negative count %d at %d", n, i)
		}
		if n > 0 && (es > math.MaxInt/n || total > math.MaxInt-n*es) {
			return 0, 0, 0, fmt.Errorf("icc: counts overflow at %d", i)
		}
		if i == c.me {
			lo, mine = total, n*es
		}
		total += n * es
	}
	return lo, mine, total, nil
}

// buildEntry validates a signature's counts, lays the vector out and
// builds its plan.
func (c *Comm) buildEntry(key planKey, counts, counts2 []int) (planEntry, error) {
	var e planEntry
	var total int
	var err error
	es := key.dt.Size()
	switch {
	case key.ragged:
		if e.lo, e.mine, total, err = c.segment(counts, es); err == nil && key.kind == planAllToAllv {
			_, _, _, err = c.segment(counts2, es)
		}
	case key.kind.partitioned():
		if e.mine, err = byteLen(key.count, es, 1); err == nil {
			total, err = byteLen(key.count, es, c.Size())
		}
		e.lo = c.me * e.mine
	default:
		total, err = byteLen(key.count, es, 1)
		e.mine = total
	}
	if err != nil {
		return e, err
	}
	if key.ragged {
		e.counts = append(append(make([]int, 0, len(counts)+len(counts2)), counts...), counts2...)
	} else if key.kind.partitioned() {
		counts = c.equalCounts(key.count)
	}
	e.pl, err = c.buildPlan(key, total, counts, counts2)
	return e, err
}

// buildPlan resolves the shape for an nBytes vector and builds the plan.
func (c *Comm) buildPlan(key planKey, nBytes int, counts, counts2 []int) (*core.Plan, error) {
	ctx := c.ctx()
	es := key.dt.Size()
	switch key.kind {
	case planBcast:
		return core.BuildBcast(ctx, c.shape(model.Bcast, nBytes), key.root, key.count, es)
	case planReduce:
		return core.BuildReduce(ctx, c.shape(model.Reduce, nBytes), key.root, key.count, key.dt, key.op)
	case planAllReduce:
		return core.BuildAllReduce(ctx, c.shape(model.AllReduce, nBytes), key.count, key.dt, key.op)
	case planScatter:
		return core.BuildScatter(ctx, c.shape(model.Scatter, nBytes), key.root, counts, es)
	case planGather:
		return core.BuildGather(ctx, c.shape(model.Gather, nBytes), key.root, counts, es)
	case planCollect:
		return core.BuildCollect(ctx, c.shape(model.Collect, nBytes), counts, es)
	case planReduceScatter:
		return core.BuildReduceScatter(ctx, c.shape(model.ReduceScatter, nBytes), counts, key.dt, key.op)
	case planAllToAll:
		return core.BuildAllToAll(ctx, c.shape(model.AllToAll, nBytes), key.count, es)
	case planAllToAllv:
		return core.BuildAllToAllv(ctx, counts, counts2, es)
	case planBcastPipelined:
		blocks := int(key.aux)
		if blocks == 0 {
			blocks = core.OptimalBlocks(c.mach, c.Size(), nBytes)
		}
		root, p := key.root, c.Size()
		if p&(p-1) == 0 && p > 1 && root >= 0 && root < p {
			// Run the ring along the Gray code, rotated so the caller's
			// root leads it; every hop then crosses one hypercube dimension.
			gray := group.GrayRing(p)
			at := group.Index(gray, root)
			ring := make([]int, p)
			for i := range ring {
				g := gray[(at+i)%p]
				ring[i] = c.members[g]
				if g == c.me {
					ctx.Me = i
				}
			}
			ctx.Members, root = ring, 0
		}
		return core.BuildPipelinedBcast(ctx, root, key.count, es, blocks)
	case planBcastEDST:
		return core.BuildEDSTBcast(ctx, key.root, key.count, es)
	case planAllReduceHypercube:
		return core.BuildHypercubeAllReduce(ctx, key.count, key.dt, key.op)
	default: // planBarrier: a zero-length combine-to-all, always on the MST shape
		return core.BuildAllReduce(ctx, model.MSTShape(c.layout), 0, Uint8, Sum)
	}
}

func (c *Comm) equalCounts(count int) []int {
	counts := make([]int, c.Size())
	for i := range counts {
		counts[i] = count
	}
	return counts
}

// The collectives, each described once. A nil counts with ragged false is
// the equal-count layout.

func (c *Comm) bcast(buf []byte, count int, dt Type, root int) (boundPlan, error) {
	return c.bind(planKey{kind: planBcast, root: root, count: count, dt: dt}, nil, nil, buf, nil)
}

func (c *Comm) reduce(send, recv []byte, count int, dt Type, op Op, root int) (boundPlan, error) {
	return c.bind(planKey{kind: planReduce, root: root, count: count, dt: dt, op: op}, nil, nil, send, recv)
}

func (c *Comm) allReduce(send, recv []byte, count int, dt Type, op Op) (boundPlan, error) {
	return c.bind(planKey{kind: planAllReduce, count: count, dt: dt, op: op}, nil, nil, send, recv)
}

func (c *Comm) scatter(send []byte, count int, counts []int, ragged bool, recv []byte, dt Type, root int) (boundPlan, error) {
	return c.bind(planKey{kind: planScatter, ragged: ragged, root: root, count: count, dt: dt}, counts, nil, send, recv)
}

func (c *Comm) gather(send []byte, count int, counts []int, ragged bool, recv []byte, dt Type, root int) (boundPlan, error) {
	return c.bind(planKey{kind: planGather, ragged: ragged, root: root, count: count, dt: dt}, counts, nil, send, recv)
}

func (c *Comm) collect(send []byte, count int, counts []int, ragged bool, recv []byte, dt Type) (boundPlan, error) {
	return c.bind(planKey{kind: planCollect, ragged: ragged, count: count, dt: dt}, counts, nil, send, recv)
}

func (c *Comm) reduceScatter(send []byte, counts []int, recv []byte, dt Type, op Op) (boundPlan, error) {
	return c.bind(planKey{kind: planReduceScatter, ragged: true, dt: dt, op: op}, counts, nil, send, recv)
}

func (c *Comm) allToAll(send, recv []byte, count int, dt Type) (boundPlan, error) {
	return c.bind(planKey{kind: planAllToAll, count: count, dt: dt}, nil, nil, send, recv)
}

func (c *Comm) allToAllv(send []byte, sendCounts []int, recv []byte, recvCounts []int, dt Type) (boundPlan, error) {
	return c.bind(planKey{kind: planAllToAllv, ragged: true, dt: dt}, sendCounts, recvCounts, send, recv)
}

func (c *Comm) barrier() (boundPlan, error) {
	return c.bind(planKey{kind: planBarrier, dt: Uint8}, nil, nil, nil, nil)
}

func (c *Comm) bcastPipelined(buf []byte, count int, dt Type, root, blocks int) (boundPlan, error) {
	return c.bind(planKey{kind: planBcastPipelined, root: root, count: count, dt: dt, aux: uint64(max(blocks, 0))}, nil, nil, buf, nil)
}

func (c *Comm) bcastEDST(buf []byte, count int, dt Type, root int) (boundPlan, error) {
	return c.bind(planKey{kind: planBcastEDST, root: root, count: count, dt: dt}, nil, nil, buf, nil)
}

func (c *Comm) allReduceHypercube(send, recv []byte, count int, dt Type, op Op) (boundPlan, error) {
	return c.bind(planKey{kind: planAllReduceHypercube, count: count, dt: dt, op: op}, nil, nil, send, recv)
}

// hierAllToAllv is the one collective whose schedule depends on data: the
// leaders of a hierarchical ragged exchange aggregate other ranks' blocks,
// so every rank must know every pair's count. It is two plans in sequence.
// An ordinary, cached collect leaves the p×p send-count matrix on every
// rank; each rank checks its recvCounts against its column; then the
// exchange plan is built from the matrix, for this call only. A timing-only
// endpoint cannot move the matrix, so callers gate this to carrying ones.
func (c *Comm) hierAllToAllv(send []byte, sendCounts []int, recv []byte, recvCounts []int, dt Type) error {
	if err := c.guard(); err != nil {
		return err
	}
	p, es := c.Size(), dt.Size()
	if _, _, _, err := c.segment(sendCounts, es); err != nil {
		return err
	}
	if _, _, _, err := c.segment(recvCounts, es); err != nil {
		return err
	}
	row := make([]byte, 8*p)
	for j, n := range sendCounts {
		binary.LittleEndian.PutUint64(row[8*j:], uint64(n))
	}
	wire := make([]byte, 8*p*p)
	if err := runNow(c.collect(row, p, nil, false, wire, Int64)); err != nil {
		return err
	}
	matrix := make([]int, p*p)
	for i := range matrix {
		matrix[i] = int(binary.LittleEndian.Uint64(wire[8*i:]))
	}
	for v, want := range recvCounts {
		if got := matrix[v*p+c.me]; got != want {
			// Only this rank can see the mismatch; abort the world so the
			// others do not wait in the exchange for a rank that left.
			return transport.AbortOnError(c.ep, fmt.Errorf(
				"icc: all-to-allv count mismatch: rank %d sends %d elements to rank %d, which expects %d", v, got, c.me, want))
		}
	}
	pl, err := core.BuildHierAllToAllv(c.ctx(), matrix, es)
	if err != nil {
		return err
	}
	return runNow(boundPlan{c: c, kind: planAllToAllv, pl: pl, send: send, recv: recv}, nil)
}

// execBufs is one pooled set of plan staging buffers.
type execBufs struct {
	buf, tmp, scratch []byte
}

// getBufs takes a staging set from the pool, growing it to the given
// lengths; steady-state calls therefore allocate nothing. Like every pooled
// buffer the vectors arrive holding old data.
func (c *Comm) getBufs(buf, tmp, scratch int) *execBufs {
	eb, _ := c.bufPool.Get().(*execBufs)
	if eb == nil {
		eb = &execBufs{}
	}
	eb.buf = grow(eb.buf, buf)
	eb.tmp = grow(eb.tmp, tmp)
	eb.scratch = grow(eb.scratch, scratch)
	return eb
}

func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// boundPlan is a plan bound to user buffers: the unit every completion mode
// runs.
type boundPlan struct {
	c          *Comm
	kind       planKind
	pl         *core.Plan
	send, recv []byte
	root       int
	lo, mine   int // this rank's segment of the vector, in bytes
}

// runNow is the blocking completion mode: check the bound buffers and run
// the plan on the caller's goroutine.
func runNow(b boundPlan, err error) error {
	if err != nil {
		return err
	}
	if err := b.check(); err != nil {
		return err
	}
	return b.run()
}

// need reports a user buffer shorter than the plan requires.
func need(name string, buf []byte, want int) error {
	if len(buf) < want {
		return fmt.Errorf("icc: %s buffer %d bytes, need %d", name, len(buf), want)
	}
	return nil
}

// check validates, before anything is sent, the buffers this rank reads and
// the ones every rank writes. The buffer only the root of a Reduce or
// Gather writes is checkRootRecv's.
func (b *boundPlan) check() error {
	if !b.c.carries() {
		return nil
	}
	vec, tmp := b.pl.BufLen, b.pl.TmpLen
	atRoot := b.c.me == b.root
	var serr, rerr error
	switch b.kind {
	case planBcast, planBcastPipelined, planBcastEDST:
		serr = need("broadcast", b.send, vec)
	case planReduce:
		serr = need("reduce send", b.send, vec)
	case planAllReduce, planAllReduceHypercube:
		serr, rerr = need("all-reduce send", b.send, vec), need("all-reduce recv", b.recv, vec)
	case planScatter:
		if atRoot {
			serr = need("scatter send", b.send, vec)
		}
		rerr = need("scatter recv", b.recv, b.mine)
	case planGather:
		serr = need("gather send", b.send, b.mine)
	case planCollect:
		serr, rerr = need("collect send", b.send, b.mine), need("collect recv", b.recv, vec)
	case planReduceScatter:
		serr, rerr = need("reduce-scatter send", b.send, vec), need("reduce-scatter recv", b.recv, b.mine)
	case planAllToAll, planAllToAllv:
		serr, rerr = need("all-to-all send", b.send, vec), need("all-to-all recv", b.recv, tmp)
	}
	if serr != nil {
		return serr
	}
	return rerr
}

// checkRootRecv validates the buffer a Reduce or Gather writes at the root
// alone. No other rank can see it fail, so the modes differ in when they
// look: I* and *Init before anything is enqueued (later), when a root-only
// error strands nobody; a blocking call — through run — after the plan has
// executed, so that the root fails alone instead of leaving its peers
// inside the collective.
func (b *boundPlan) checkRootRecv() error {
	if b.c.carries() && b.c.me == b.root {
		switch b.kind {
		case planReduce:
			return need("reduce recv", b.recv, b.pl.BufLen)
		case planGather:
			return need("gather recv", b.recv, b.pl.BufLen)
		}
	}
	return nil
}

// later is what I* and *Init do with a bound plan before running it some
// other time: every check a blocking call makes, up front.
func later(b boundPlan, err error) (boundPlan, error) {
	if err == nil {
		err = b.check()
	}
	if err == nil {
		err = b.checkRootRecv()
	}
	return b, err
}

// run stages user data in, executes the plan and stages results out. The
// plan works in the user's own buffers where the collective's contract
// allows it (broadcast in place, collect in recv, all-to-all from send to
// recv) and otherwise in pooled staging vectors; on a timing-only endpoint
// no payload moves and nothing is staged at all.
func (b *boundPlan) run() error {
	c, pl := b.c, b.pl
	if err := c.guard(); err != nil {
		return err
	}
	if !c.carries() {
		return pl.Execute(c.ep, &c.mach, core.Buffers{})
	}
	var bs core.Buffers
	staged := false
	switch b.kind {
	case planBcast, planBcastPipelined, planBcastEDST:
		bs.Buf = b.send[:pl.BufLen]
	case planCollect:
		bs.Buf = b.recv[:pl.BufLen]
	case planAllToAll, planAllToAllv:
		bs.Buf, bs.Tmp = b.send[:pl.BufLen], b.recv[:pl.TmpLen]
	default:
		staged = true
	}
	var eb *execBufs
	if staged {
		eb = c.getBufs(pl.BufLen, pl.TmpLen, pl.ScratchLen)
		bs.Buf, bs.Tmp = eb.buf, eb.tmp
	} else {
		eb = c.getBufs(0, 0, pl.ScratchLen)
	}
	bs.Scratch = eb.scratch
	defer c.bufPool.Put(eb)

	atRoot := c.me == b.root
	switch b.kind {
	case planReduce, planAllReduce, planAllReduceHypercube, planReduceScatter:
		copy(bs.Buf, b.send[:pl.BufLen])
	case planScatter:
		if atRoot {
			copy(bs.Buf, b.send[:pl.BufLen])
		}
	case planGather, planCollect:
		copy(bs.Buf[b.lo:b.lo+b.mine], b.send[:b.mine])
	}
	if err := pl.Execute(c.ep, &c.mach, bs); err != nil {
		return err
	}
	if err := b.checkRootRecv(); err != nil {
		return err
	}
	switch b.kind {
	case planReduce, planGather:
		if atRoot {
			copy(b.recv[:pl.BufLen], bs.Buf)
		}
	case planAllReduce, planAllReduceHypercube:
		copy(b.recv[:pl.BufLen], bs.Buf)
	case planScatter, planReduceScatter:
		copy(b.recv[:b.mine], bs.Buf[b.lo:b.lo+b.mine])
	}
	return nil
}
