package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	icc "repro"
	"repro/internal/chantransport"
	"repro/internal/tcptransport"
	"repro/internal/transport"
)

// ranks is the size of every wall-clock world: the smallest group on which
// MST, bucket and 2x2 hybrid schedules differ. Ranks are goroutines in this
// process; wall-clock scaling in p is not reported (more ranks than cores).
const ranks = 4

// live describes one of the four workloads that run collectives on a
// wall-clock world.
type live struct {
	name       string
	transport  string // "chan" or "tcp" (loopback)
	persistent bool
	oneP       bool // passes run under GOMAXPROCS(1): see the note on lives
	rounds     int  // fixed work of a full run, sized for 12-25 s on two cores
	warm       int  // warm-up rounds, part of set-up
	setups     int  // segments of the untraced pass: that many set-ups fit in ~1.5 s
	build      func(b *builder) []op
}

const (
	kib = 1 << 10
	mib = 1 << 20
)

// The latency-bound workloads — short_blocking, persist_replay, and with
// them sim_scale and survivor_power — run their passes under GOMAXPROCS(1).
// They advance in lock step through small messages, so a second P buys
// little parallelism and makes every hand-off between ranks a wake-up of
// another OS thread, and on a shared two-core host the cost of waking an
// idle virtual CPU swings with the neighbours' load. Alternating runs in a
// noisy spell: short_blocking's ten-run spread was 38 % of the median on
// two Ps (199-367 us a round) against 12 % on one (137-167 us);
// survivor_power 8 % against 3 %, sim_scale 10 % against 3 %; the driver
// once measured 27 % for survivor_power on two. One P is also faster for
// three of the four (persist_replay, whose progress goroutines then cannot
// overlap the caller, is 1.3x slower). long_blocking keeps the default: it
// copies in parallel, takes twice as long on one P and was steady (4-5 %)
// through the same spell. tcp_mixed keeps it too: the kernel does half its
// work and one P made it 11 % slower and no steadier.
var lives = []live{
	{
		name: wShort, transport: "chan", oneP: true, rounds: 100000, warm: 50, setups: 31,
		build: func(b *builder) []op {
			const n = kib / 8 // 1 KiB vectors
			per := n / ranks
			rng := newSplitmix(b.seed, 1)
			matrix := make([][]int, ranks)
			for i := range matrix {
				matrix[i] = ragged(rng, n, ranks)
			}
			return []op{
				b.bcast(n), b.reduction(n, true), b.reduction(n, false),
				b.scatter(per, nil), b.scatter(0, ragged(rng, n, ranks)),
				b.assemble(per, nil, true), b.assemble(0, ragged(rng, n, ranks), true),
				b.assemble(per, nil, false), b.assemble(0, ragged(rng, n, ranks), false),
				b.reduceScatter(ragged(rng, n, ranks)),
				b.allToAll(per, nil), b.allToAll(0, matrix), b.barrier(),
			}
		},
	},
	{
		name: wLong, transport: "chan", rounds: 400, warm: 3, setups: 9,
		build: func(b *builder) []op {
			const n = 4 * mib / 8
			return []op{
				b.reduction(n, false), b.bcast(n), b.reduceScatter(equal(n/ranks, ranks)),
				b.assemble(mib/8, nil, false), b.allToAll(mib/8, nil),
			}
		},
	},
	{
		name: wPersist, transport: "chan", persistent: true, oneP: true, rounds: 7000, warm: 20, setups: 15,
		build: func(b *builder) []op {
			var ops []op
			for _, sz := range []struct {
				n     int
				label string
			}{{kib / 8, "1KiB"}, {64 * kib / 8, "64KiB"}} {
				per := sz.n / ranks
				for _, o := range []op{
					b.bcast(sz.n), b.reduction(sz.n, true), b.reduction(sz.n, false), b.scatter(per, nil),
					b.assemble(per, nil, true), b.assemble(per, nil, false), b.allToAll(per, nil), b.barrier(),
				} {
					ops = append(ops, sized(o, sz.label))
				}
			}
			return append(ops, b.pair(64*kib/8), b.initHit(kib/8))
		},
	},
	{
		name: wTCP, transport: "tcp", rounds: 3000, warm: 10, setups: 15,
		build: func(b *builder) []op {
			var ops []op
			for _, sz := range []struct {
				n     int
				label string
			}{{kib / 8, "1KiB"}, {256 * kib / 8, "256KiB"}} {
				for _, o := range []op{
					b.reduction(sz.n, false), b.bcast(sz.n), b.assemble(sz.n/ranks, nil, false), b.allToAll(sz.n/ranks, nil),
				} {
					ops = append(ops, sized(o, sz.label))
				}
			}
			return ops
		},
	},
}

// pair is an IAllReduce and an IBcast in flight together, then both
// waited for.
func (b *builder) pair(count int) op {
	arSend, arRecv, bcBuf := make([]byte, 8*count), make([]byte, 8*count), make([]byte, 8*count)
	k1, k2, pos := b.id(), b.id(), positions(count)
	var r1, r2 *icc.Request
	o := op{name: "nbpair", n: 2 * 8 * count}
	o.fill = func(t int) {
		for _, i := range pos {
			putF64(arSend, i, val(b.seed, k1, b.me(), i, t))
			putF64(arRecv, i, -1)
			v := -1.0
			if b.me() == b.root(t) {
				v = val(b.seed, k2, b.root(t), i, t)
			}
			putF64(bcBuf, i, v)
		}
	}
	o.check = func(t int) bool {
		for _, i := range pos {
			want := 0.0
			for r := 0; r < b.p(); r++ {
				want += val(b.seed, k1, r, i, t)
			}
			if getF64(arRecv, i) != want || getF64(bcBuf, i) != val(b.seed, k2, b.root(t), i, t) {
				return false
			}
		}
		return true
	}
	o.steps = []step{
		{kIssue, func(int) (err error) {
			r1, err = b.c.IAllReduce(arSend, arRecv, count, icc.Float64, icc.Sum)
			return err
		}},
		{kIssue, func(t int) (err error) {
			r2, err = b.c.IBcast(bcBuf, count, icc.Float64, b.root(t))
			return err
		}},
		{kWait, func(int) error { return r1.Wait() }},
		{kWait, func(int) error { return r2.Wait() }},
	}
	return o
}

// initHit is one AllReduceInit served from the plan cache, and its Free.
func (b *builder) initHit(count int) op {
	send, recv := make([]byte, 8*count), make([]byte, 8*count)
	o := op{name: "inithit", fill: func(int) {}, check: func(int) bool { return true }}
	o.steps = []step{{kInit, func(int) error {
		h, err := b.c.AllReduceInit(send, recv, count, icc.Float64, icc.Sum)
		if err != nil {
			return err
		}
		h.Free()
		return nil
	}}}
	return o
}

// stopRule ends the timed loop: after maxRounds rounds (0: no limit) or
// once budget has elapsed on the wall clock (0: no limit).
type stopRule struct {
	maxRounds int
	budget    time.Duration
}

// split cuts the rule into k shares, one per segment of a run: the time
// and the rounds divided evenly, the first shares taking the rounds left
// over. With fewer than k rounds there is a share per round.
func (s stopRule) split(k int) []stopRule {
	if s.maxRounds > 0 && s.maxRounds < k {
		k = s.maxRounds
	}
	shares := make([]stopRule, k)
	for i := range shares {
		shares[i] = stopRule{maxRounds: s.maxRounds / k, budget: s.budget / time.Duration(k)}
		if i < s.maxRounds%k {
			shares[i].maxRounds++
		}
	}
	return shares
}

// after reports whether round t, just finished, was the last; begun is
// when the timed rounds began.
func (s stopRule) after(t int, begun time.Time) bool {
	return t+1 == s.maxRounds || (s.budget > 0 && time.Since(begun) >= s.budget)
}

// pass is the outcome of one pass of a workload.
type pass struct {
	setup        float64   // seconds from world construction to the end of warm-up
	durs         []float64 // timed round durations, seconds, in order
	attempted    int
	failed       int
	bytes        int       // Σ vector lengths of one round
	recoverDurs  []float64 // survivor_power: rank 0's recovery time per solve, seconds
	agreeDurs    []float64 // survivor_power: standalone Agree, one per warm-up solve
	mem0, mem1   runtime.MemStats
	plannerCalls int64 // rank 0, over the timed rounds
	planStats    icc.PlanCacheStats
	reconnects   int64
	simSeconds   float64 // sim_scale: Σ virtual seconds of one script pass
	simTable3    float64
	simTree      float64
	simMsgs      int64
	simPredicted float64
	iters        int         // survivor_power: iterations of one solve
	lambdaErr    float64     // survivor_power: worst relative error against the serial reference
	recs         []*recorder // traced passes: every recorder
	recs0        []*recorder // traced passes: the recorders of rank 0
}

func (p *pass) rounds() int { return len(p.durs) }

// wrapper decorates rank r's endpoint before icc.New sees it.
type wrapper func(r int, ep transport.Endpoint) transport.Endpoint

// eachRank runs fn once per rank of a fresh 4-rank world over the named
// transport ("chan", or "tcp": loopback sockets) and tears the world down.
// It returns the first error by rank and, for TCP, the endpoints' total
// reconnect count.
func eachRank(tr string, fn func(ep transport.Endpoint) error) (reconnects int64, err error) {
	if tr == "chan" {
		w, err := chantransport.NewWorld(ranks, chantransport.WithRecvTimeout(icc.DefaultRecvTimeout))
		if err != nil {
			return 0, err
		}
		return 0, w.Run(func(ep *chantransport.Endpoint) error { return fn(ep) })
	}
	eps, err := tcptransport.NewLocalWorld(ranks)
	if err != nil {
		return 0, err
	}
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := range eps {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(eps[r])
		}(r)
	}
	wg.Wait()
	for r, ep := range eps {
		reconnects += ep.Reconnects()
		if cerr := ep.Close(); cerr != nil && errs[r] == nil {
			errs[r] = cerr
		}
	}
	for r, e := range errs {
		if e != nil {
			return reconnects, fmt.Errorf("rank %d: %w", r, e)
		}
	}
	return reconnects, nil
}

// world is eachRank with a default-constants communicator built over each
// (optionally wrapped) endpoint.
func world(tr string, wrap wrapper, fn func(c *icc.Comm) error) (reconnects int64, err error) {
	return eachRank(tr, func(ep transport.Endpoint) error {
		if wrap != nil {
			ep = wrap(ep.Rank(), ep)
		}
		c, err := icc.New(ep)
		if err != nil {
			return err
		}
		return fn(c)
	})
}

// runLive runs one pass of a live workload on a fresh world: set-up
// (world, communicator, buffers, handles, warm-up rounds), then timed
// rounds until stop says so. With traced set, every rank records spans
// and the endpoints are wrapped. extra further decorates the endpoints
// (the faultnet overhead probe).
func runLive(w live, seed int64, stop stopRule, traced bool, extra wrapper) (*pass, error) {
	if w.oneP {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	res := &pass{durs: make([]float64, 0, 1<<16)} // more rounds than any segment of a run makes: no growth while timing
	var wrap wrapper = extra
	if traced {
		clock := wallClock()
		res.recs = make([]*recorder, ranks)
		for r := range res.recs {
			res.recs[r] = newRecorder(r, clock)
		}
		res.recs0 = res.recs[:1]
		wrap = func(r int, ep transport.Endpoint) transport.Endpoint {
			if extra != nil {
				ep = extra(r, ep)
			}
			return wrapTrace(ep, res.recs[r])
		}
	}
	// stopAt is the first round that does not run. Rank 0 decides after a
	// round and stores the next round's number before it enters that
	// round's aligning barrier, so every rank reads the same decision once
	// the barrier lets it through.
	var stopAt atomic.Int64
	stopAt.Store(math.MaxInt64)
	var failed atomic.Int64
	t0 := time.Now()
	reconnects, err := world(w.transport, wrap, func(c *icc.Comm) error {
		b := &builder{c: c, seed: seed, persistent: w.persistent}
		ops := w.build(b)
		if b.err != nil {
			return b.err
		}
		var mine *recorder
		if traced {
			mine = res.recs[c.Rank()]
		}
		me0 := c.Rank() == 0
		if me0 {
			for _, o := range ops {
				res.bytes += o.n
			}
		}
		var begun time.Time
		var calls0 int64
		for t := -w.warm; ; t++ {
			for _, o := range ops {
				o.fill(t)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if t == 0 && me0 {
				res.setup = time.Since(t0).Seconds()
				calls0 = c.PlannerCalls()
				runtime.ReadMemStats(&res.mem0)
				begun = time.Now()
			}
			if t >= 0 && int64(t) >= stopAt.Load() {
				if me0 {
					runtime.ReadMemStats(&res.mem1)
					res.plannerCalls = c.PlannerCalls() - calls0
					res.planStats = c.PlanCacheStats()
				}
				return nil
			}
			rec := mine
			if t < 0 {
				rec = nil // warm-up rounds are not traced
			}
			rec.setRound(t)
			round := rec.begin(kRound, "round")
			start := time.Now()
			for i := range ops {
				o := &ops[i]
				for _, s := range o.steps {
					id := rec.begin(s.kind, o.name)
					err := s.f(t)
					rec.end(id)
					if err != nil {
						// A failed collective poisons the world for every
						// rank; the pass cannot continue.
						return fmt.Errorf("%s round %d seed %d: %s: %w", w.name, t, seed, o.name, err)
					}
				}
			}
			elapsed := time.Since(start).Seconds()
			rec.end(round)
			rec.setRound(-1)
			for _, o := range ops {
				if !o.check(t) {
					if t >= 0 {
						failed.Add(1)
					}
					fmt.Fprintf(os.Stderr, "FAILED CHECK: workload %s round %d seed %d rank %d: %s\n", w.name, t, seed, c.Rank(), o.name)
				}
			}
			if me0 && t >= 0 {
				res.durs = append(res.durs, elapsed)
				if stop.after(t, begun) {
					stopAt.Store(int64(t + 1))
				}
			}
		}
	})
	res.reconnects = reconnects
	res.attempted = len(res.durs)
	// A failed check on any rank fails its round; several ranks may fail the
	// same round, so cap at the rounds attempted.
	res.failed = int(failed.Load())
	if res.failed > res.attempted {
		res.failed = res.attempted
	}
	if err != nil {
		// The round that failed was attempted and is not in durs.
		res.attempted++
		res.failed++
	}
	return res, err
}
