package icc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
)

// Persistent collectives (MPI-style *_init): Init resolves the shape,
// records a step plan, validates and binds the argument buffers once;
// every Start then replays the plan — no shape enumeration, no coordinate
// arithmetic, no per-call scratch allocation. Plans are cached on the
// communicator, so many handles (and the non-blocking variants) with the
// same signature share one construction.

// planKind distinguishes the cached collectives. Barrier gets its own kind
// because it bypasses shape resolution (it always runs the MST shape).
type planKind uint8

const (
	planBcast planKind = iota
	planReduce
	planAllReduce
	planScatter
	planGather
	planCollect
	planAllToAll
	planBarrier
)

// planKey identifies a cached plan. The cache lives on the communicator,
// whose group and machine are immutable, so the group need not be part of
// the key; root, count, datatype and op pin everything else a plan bakes
// in.
type planKey struct {
	kind  planKind
	root  int
	count int
	dt    Type
	op    Op
}

// PlanCacheStats reports the communicator's plan-cache effectiveness.
type PlanCacheStats struct {
	// Entries is the number of distinct plans currently cached.
	Entries int
	// Hits and Misses count plan lookups that were served from the cache
	// versus built by recording.
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

// plan returns the cached plan for a key, recording it on first use.
func (c *Comm) plan(key planKey, nBytes int) (*core.Plan, error) {
	c.planMu.Lock()
	if pl, ok := c.plans[key]; ok {
		c.planMu.Unlock()
		c.planHits.Add(1)
		return pl, nil
	}
	c.planMu.Unlock()
	c.planMiss.Add(1)
	pl, err := c.buildPlan(key, nBytes)
	if err != nil {
		return nil, err
	}
	c.planMu.Lock()
	if c.plans == nil {
		c.plans = make(map[planKey]*core.Plan)
	}
	c.plans[key] = pl
	c.planMu.Unlock()
	return pl, nil
}

func (c *Comm) buildPlan(key planKey, nBytes int) (*core.Plan, error) {
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
		return core.BuildScatter(ctx, c.shape(model.Scatter, nBytes), key.root, c.equalCounts(key.count), es)
	case planGather:
		return core.BuildGather(ctx, c.shape(model.Gather, nBytes), key.root, c.equalCounts(key.count), es)
	case planCollect:
		return core.BuildCollect(ctx, c.shape(model.Collect, nBytes), c.equalCounts(key.count), es)
	case planAllToAll:
		return core.BuildAllToAll(ctx, c.shape(model.AllToAll, nBytes), key.count, es)
	default: // planBarrier
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

// execBufs is one pooled set of plan staging buffers.
type execBufs struct {
	buf, tmp, scratch []byte
}

// getBufs takes a staging set from the pool, growing it to the given
// lengths; steady-state calls therefore allocate nothing.
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

func (c *Comm) putBufs(eb *execBufs) {
	if eb != noStaging {
		c.bufPool.Put(eb)
	}
}

func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// boundPlan is a plan bound to user buffers: the replayable unit both the
// persistent Start path and the non-blocking variants enqueue. run stages
// user data in, replays the plan, and stages results out, mirroring the
// corresponding blocking wrapper exactly.
type boundPlan struct {
	c          *Comm
	kind       planKind
	pl         *core.Plan
	send, recv []byte
	n          int // one rank's payload bytes (segment/block size where sliced)
	root       int
}

func (b *boundPlan) run() error {
	c := b.c
	if err := c.guard(); err != nil {
		return err
	}
	carry := c.carries()
	var bs core.Buffers
	var eb *execBufs
	get := func() { eb = c.getBufs(b.pl.BufLen, b.pl.TmpLen, b.pl.ScratchLen) }
	stage := func() {
		get()
		bs.Buf, bs.Tmp, bs.Scratch = eb.buf, eb.tmp, eb.scratch
	}
	switch b.kind {
	case planBcast:
		// In place in the user's buffer; only internal scratch is pooled.
		get()
		bs.Scratch = eb.scratch
		if carry {
			bs.Buf = b.send[:b.n]
		}
	case planReduce, planAllReduce:
		stage()
		if carry {
			copy(bs.Buf, b.send[:b.n])
		}
	case planScatter:
		stage()
		if carry && c.me == b.root {
			copy(bs.Buf, b.send[:b.pl.BufLen])
		}
	case planGather:
		stage()
		if carry {
			copy(bs.Buf[c.me*b.n:(c.me+1)*b.n], b.send[:b.n])
		}
	case planCollect:
		// The recv vector is the working buffer, as in Collectv.
		get()
		bs.Scratch = eb.scratch
		if carry {
			bs.Buf = b.recv[:b.pl.BufLen]
			copy(bs.Buf[c.me*b.n:(c.me+1)*b.n], b.send[:b.n])
		}
	case planAllToAll:
		get()
		bs.Scratch = eb.scratch
		if carry {
			bs.Buf = b.send[:b.pl.BufLen]
			bs.Tmp = b.recv[:b.pl.TmpLen]
		}
	case planBarrier:
		// Zero-length vectors; nothing to stage.
	}
	err := b.pl.Execute(c.ep, &c.mach, bs)
	if err == nil && carry {
		switch b.kind {
		case planReduce:
			if c.me == b.root {
				copy(b.recv[:b.n], bs.Buf)
			}
		case planAllReduce:
			copy(b.recv[:b.n], bs.Buf)
		case planScatter:
			copy(b.recv[:b.n], bs.Buf[c.me*b.n:(c.me+1)*b.n])
		case planGather:
			if c.me == b.root {
				copy(b.recv[:b.pl.BufLen], bs.Buf)
			}
		}
	}
	if eb != nil {
		c.putBufs(eb)
	}
	return err
}

// checkBound validates the user buffers a boundPlan will replay against,
// at Init/issue time so errors surface before anything is enqueued.
func (b *boundPlan) check() error {
	if !b.c.carries() {
		return nil
	}
	me, root, n := b.c.me, b.root, b.n
	need := func(name string, buf []byte, want int) error {
		if len(buf) < want {
			return fmt.Errorf("icc: %s buffer %d bytes, need %d", name, len(buf), want)
		}
		return nil
	}
	switch b.kind {
	case planBcast:
		return need("broadcast", b.send, n)
	case planReduce:
		if err := need("reduce send", b.send, n); err != nil {
			return err
		}
		if me == root {
			return need("reduce recv", b.recv, n)
		}
	case planAllReduce:
		if err := need("all-reduce send", b.send, n); err != nil {
			return err
		}
		return need("all-reduce recv", b.recv, n)
	case planScatter:
		if me == root {
			if err := need("scatter send", b.send, b.pl.BufLen); err != nil {
				return err
			}
		}
		return need("scatter recv", b.recv, n)
	case planGather:
		if err := need("gather send", b.send, n); err != nil {
			return err
		}
		if me == root {
			return need("gather recv", b.recv, b.pl.BufLen)
		}
	case planCollect:
		if err := need("collect send", b.send, n); err != nil {
			return err
		}
		return need("collect recv", b.recv, b.pl.BufLen)
	case planAllToAll:
		if err := need("all-to-all send", b.send, b.pl.BufLen); err != nil {
			return err
		}
		return need("all-to-all recv", b.recv, b.pl.TmpLen)
	}
	return nil
}

// Persistent is an initialized collective: a cached plan pinned to a set
// of argument buffers. Start begins one execution (reading the send buffer
// as of that moment), Wait completes it; the cycle may repeat any number
// of times. Start/Wait pairs must not overlap on one handle, and the bound
// buffers must not be touched while an execution is in flight.
type Persistent struct {
	b     boundPlan
	req   *Request
	freed bool
}

// Start begins one execution of the persistent collective on the
// communicator's progress goroutine. It is an error to Start again before
// Wait, or after Free.
func (p *Persistent) Start() error {
	if p.freed {
		return fmt.Errorf("icc: Start on a freed persistent handle")
	}
	if p.req != nil {
		if done, _ := p.req.Test(); !done {
			return fmt.Errorf("icc: Start while a previous start is in flight")
		}
	}
	p.req = newRequest()
	p.b.c.prog.issue(p.b.run, p.req)
	return nil
}

// Wait blocks until the started execution completes and returns its error.
func (p *Persistent) Wait() error {
	if p.req == nil {
		return fmt.Errorf("icc: Wait without Start")
	}
	return p.req.Wait()
}

// Test reports whether the started execution has completed.
func (p *Persistent) Test() (bool, error) {
	if p.req == nil {
		return false, fmt.Errorf("icc: Test without Start")
	}
	return p.req.Test()
}

// Free releases the handle. The underlying plan stays cached on the
// communicator for future handles; outstanding executions still complete.
func (p *Persistent) Free() { p.freed = true }

// initPersistent builds a handle for a cached plan bound to user buffers.
func (c *Comm) initPersistent(kind planKind, key planKey, nBytes, segBytes int, send, recv []byte) (*Persistent, error) {
	if err := c.guard(); err != nil {
		return nil, err
	}
	pl, err := c.plan(key, nBytes)
	if err != nil {
		return nil, err
	}
	p := &Persistent{b: boundPlan{
		c: c, kind: kind, pl: pl, send: send, recv: recv, n: segBytes, root: key.root,
	}}
	if err := p.b.check(); err != nil {
		return nil, err
	}
	return p, nil
}

// BcastInit initializes a persistent broadcast of count elements of dt
// from root, in place in buf.
func (c *Comm) BcastInit(buf []byte, count int, dt Type, root int) (*Persistent, error) {
	n, err := c.vecBytes(count, dt, 1)
	if err != nil {
		return nil, err
	}
	return c.initPersistent(planBcast, planKey{kind: planBcast, root: root, count: count, dt: dt}, n, n, buf, nil)
}

// ReduceInit initializes a persistent reduce; recv is written at root.
func (c *Comm) ReduceInit(send, recv []byte, count int, dt Type, op Op, root int) (*Persistent, error) {
	n, err := c.vecBytes(count, dt, 1)
	if err != nil {
		return nil, err
	}
	return c.initPersistent(planReduce, planKey{kind: planReduce, root: root, count: count, dt: dt, op: op}, n, n, send, recv)
}

// AllReduceInit initializes a persistent all-reduce.
func (c *Comm) AllReduceInit(send, recv []byte, count int, dt Type, op Op) (*Persistent, error) {
	n, err := c.vecBytes(count, dt, 1)
	if err != nil {
		return nil, err
	}
	return c.initPersistent(planAllReduce, planKey{kind: planAllReduce, count: count, dt: dt, op: op}, n, n, send, recv)
}

// ScatterInit initializes a persistent equal-count scatter: count elements
// of dt to each rank from root's send vector.
func (c *Comm) ScatterInit(send, recv []byte, count int, dt Type, root int) (*Persistent, error) {
	total, err := c.vecBytes(count, dt, c.Size())
	if err != nil {
		return nil, err
	}
	return c.initPersistent(planScatter, planKey{kind: planScatter, root: root, count: count, dt: dt}, total, count*dt.Size(), send, recv)
}

// GatherInit initializes a persistent equal-count gather into root's recv.
func (c *Comm) GatherInit(send, recv []byte, count int, dt Type, root int) (*Persistent, error) {
	total, err := c.vecBytes(count, dt, c.Size())
	if err != nil {
		return nil, err
	}
	return c.initPersistent(planGather, planKey{kind: planGather, root: root, count: count, dt: dt}, total, count*dt.Size(), send, recv)
}

// CollectInit initializes a persistent equal-count all-gather.
func (c *Comm) CollectInit(send, recv []byte, count int, dt Type) (*Persistent, error) {
	total, err := c.vecBytes(count, dt, c.Size())
	if err != nil {
		return nil, err
	}
	return c.initPersistent(planCollect, planKey{kind: planCollect, count: count, dt: dt}, total, count*dt.Size(), send, recv)
}

// AllToAllInit initializes a persistent equal-count complete exchange.
func (c *Comm) AllToAllInit(send, recv []byte, count int, dt Type) (*Persistent, error) {
	total, err := c.vecBytes(count, dt, c.Size())
	if err != nil {
		return nil, err
	}
	return c.initPersistent(planAllToAll, planKey{kind: planAllToAll, count: count, dt: dt}, total, count*dt.Size(), send, recv)
}

// BarrierInit initializes a persistent barrier.
func (c *Comm) BarrierInit() (*Persistent, error) {
	return c.initPersistent(planBarrier, planKey{kind: planBarrier, dt: Uint8}, 0, 0, nil, nil)
}
