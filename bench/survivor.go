package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	icc "repro"
	"repro/internal/chantransport"
	"repro/internal/faultnet"
	"repro/internal/transport"
)

// survivor_power: time to solution of an application that loses a rank.
// A round is one whole solve on a fresh world (a dead chan rank cannot be
// revived): the power method on a 256x256 formula matrix, rows in blocks,
// x replicated — local matvec, Collectv of y, AllReduce-Max of the residual
// — to a relative tolerance of 1e-10. One rank (never rank 0) fail-stops at
// a seeded transport operation mid-solve; the survivors run the doc.go
// loop: Shrink, AllReduce-Max of the iteration counter, re-block the rows
// over the three survivors, continue. The eigenvalue is checked against a
// serial reference.

const (
	powerDim     = 256
	powerTol     = 1e-10
	powerMaxIter = 200
	survRounds   = 8000
	survWarm     = 3
	survSetups   = 31
	// opsPerIter bounds the transport operations one rank issues per
	// iteration (a Collectv and an 8-byte AllReduce on 4 ranks), so a
	// fail-stop armed at the top of an iteration lands inside it or the next.
	opsPerIter = 6
)

// powerProblem is the matrix, the start vector and the serial reference.
type powerProblem struct {
	a      []float64 // row-major powerDim x powerDim
	x0     []float64
	lambda float64
	iters  int
}

func newPowerProblem() *powerProblem {
	n := powerDim
	pp := &powerProblem{a: make([]float64, n*n), x0: make([]float64, n)}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			v := math.Sin(float64(r*13+c*7))*0.1 + 2.0/float64(n)
			if r == c {
				v++
			}
			pp.a[r*n+c] = v
		}
	}
	// The start vector is fixed: the seed drives the fault schedule only,
	// so every seed solves in the same number of iterations and run times
	// compare across seeds.
	for i := range pp.x0 {
		pp.x0[i] = 1
	}
	// Serial reference: the same arithmetic in the same order per row, so
	// the distributed solve must reproduce λ and the iteration count.
	x, y := append([]float64(nil), pp.x0...), make([]float64, n)
	for pp.iters < powerMaxIter {
		pp.matvec(x, y, 0, n)
		lambda, res := powerStep(x, y, 0, n)
		x, y = y, x
		pp.lambda = lambda
		pp.iters++
		if res <= powerTol*lambda {
			break
		}
	}
	return pp
}

// matvec writes rows [lo, hi) of A·x into y[lo:hi].
func (pp *powerProblem) matvec(x, y []float64, lo, hi int) {
	n := powerDim
	for r := lo; r < hi; r++ {
		row := pp.a[r*n : (r+1)*n]
		var s float64
		for c, v := range row {
			s += v * x[c]
		}
		y[r] = s
	}
}

// powerStep takes the full y = A·x, returns λ = ‖y‖₂ and the residual
// max|y_i − λ·x_i| over rows [lo, hi), and scales y to the next iterate
// y/λ. x is left alone: a rank that must repeat the iteration needs it.
func powerStep(x, y []float64, lo, hi int) (lambda, res float64) {
	for _, v := range y {
		lambda += v * v
	}
	lambda = math.Sqrt(lambda)
	for i := lo; i < hi; i++ {
		res = math.Max(res, math.Abs(y[i]-lambda*x[i]))
	}
	for i := range y {
		y[i] /= lambda
	}
	return lambda, res
}

// rowBlock returns rank i's rows when n rows are cut into parts blocks.
func rowBlock(n, parts, i int) (lo, hi int) {
	base, rem := n/parts, n%parts
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// solveState is one rank's preallocated working set, reused across solves.
type solveState struct {
	x, y         []float64
	ymine, yfull []byte
	res, resMax  []byte
	it, itMax    []byte
	counts       []int
}

func newSolveState() *solveState {
	n := powerDim
	return &solveState{
		x: make([]float64, n), y: make([]float64, n),
		ymine: make([]byte, 8*n), yfull: make([]byte, 8*n),
		res: make([]byte, 8), resMax: make([]byte, 8),
		it: make([]byte, 8), itMax: make([]byte, 8),
		counts: make([]int, 0, ranks),
	}
}

// solveOutcome is what rank 0 observed of one solve.
type solveOutcome struct {
	lambda    float64
	iters     int
	recoverS  float64 // first failed collective's return → resync complete
	agreeS    float64 // a standalone Agree after convergence (warm-up solves only)
	survivors int
}

// fault is one solve's seeded fail-stop: the victim arms the injector at
// the top of iteration armIter and dies at its op-th transport operation
// after that.
type fault struct{ victim, armIter, op int }

func faultFor(seed int64, solve, iters int) fault {
	rng := newSplitmix(seed, 1000+solve)
	return fault{
		victim:  1 + rng.intn(ranks-1),
		armIter: iters/4 + rng.intn(iters/4+1),
		op:      rng.intn(opsPerIter),
	}
}

// solve runs one rank's side of a solve. It returns errVictim on the rank
// that was killed. With agree set, the survivors finish with a standalone
// Agree that rank 0 times.
func (pp *powerProblem) solve(c *icc.Comm, st *solveState, f fault, inj *faultnet.Injector, rec *recorder, agree bool, out *solveOutcome) error {
	n := powerDim
	me0 := c.Rank() == 0
	copy(st.x, pp.x0)
	cur := c
	var lo, hi int
	reblock := func() {
		st.counts = st.counts[:0]
		for i := 0; i < cur.Size(); i++ {
			l, h := rowBlock(n, cur.Size(), i)
			st.counts = append(st.counts, h-l)
		}
		lo, hi = rowBlock(n, cur.Size(), cur.Rank())
	}
	reblock()
	justShrunk := false
	for it := 0; it < powerMaxIter; {
		if c.Rank() == f.victim && it == f.armIter {
			inj.SetArmed(true)
		}
		pp.matvec(st.x, st.y, lo, hi)
		for i := lo; i < hi; i++ {
			putF64(st.ymine, i-lo, st.y[i])
		}
		kind, name := kCall, "collectv"
		if justShrunk {
			kind, name, justShrunk = kRecover, "post_shrink_op", false
		}
		id := rec.begin(kind, name)
		err := cur.Collectv(st.ymine, st.counts, st.yfull, icc.Float64)
		rec.end(id)
		haveNext := err == nil // st.y holds the next iterate
		var lambda float64
		if haveNext {
			for i := range st.y {
				st.y[i] = getF64(st.yfull, i)
			}
			var res float64
			lambda, res = powerStep(st.x, st.y, lo, hi)
			putF64(st.res, 0, res)
			id := rec.begin(kCall, "allreduce")
			err = cur.AllReduce(st.res, st.resMax, 1, icc.Float64, icc.Max)
			rec.end(id)
		}
		if err == nil {
			st.x, st.y = st.y, st.x
			it++
			if getF64(st.resMax, 0) > powerTol*lambda {
				continue
			}
			if me0 {
				out.lambda, out.iters, out.survivors = lambda, it, cur.Size()
			}
			if agree {
				t0 := time.Now()
				if _, err := cur.Agree(); err != nil {
					return fmt.Errorf("standalone agree: %w", err)
				}
				if me0 {
					out.agreeS = time.Since(t0).Seconds()
				}
			}
			return nil
		}
		if errors.Is(err, faultnet.ErrInjected) {
			return errVictim
		}
		// Survivor recovery, the doc.go loop. Aborts land asynchronously, so
		// survivors stop in different places — but at most one iteration
		// apart: a rank passes iteration k's AllReduce only once every rank
		// has finished k's Collectv. So whoever lags behind the agreed
		// iteration holds the next iterate already and steps forward;
		// whoever is at it repeats the iteration from its untouched x.
		failedAt := time.Now()
		for {
			id := rec.begin(kRecover, "shrink")
			s, err := cur.Shrink()
			rec.end(id)
			if err != nil {
				return fmt.Errorf("shrink: %w", err)
			}
			cur = s
			putF64(st.it, 0, float64(it))
			id = rec.begin(kRecover, "resync")
			err = cur.AllReduce(st.it, st.itMax, 1, icc.Float64, icc.Max)
			rec.end(id)
			if err == nil {
				break
			}
			if !errors.Is(err, icc.ErrAborted) {
				return fmt.Errorf("resync: %w", err)
			}
		}
		if me0 {
			out.recoverS = time.Since(failedAt).Seconds()
		}
		switch target := int(getF64(st.itMax, 0)); {
		case target == it:
		case target == it+1 && haveNext:
			st.x, st.y = st.y, st.x
			it = target
		default:
			return fmt.Errorf("resync to iteration %d from iteration %d (next iterate held: %v): survivors more than one step apart", target, it, haveNext)
		}
		reblock()
		justShrunk = true
	}
	return fmt.Errorf("no convergence in %d iterations", powerMaxIter)
}

var errVictim = errors.New("fail-stopped by schedule")

// runSolve builds a fresh faulty world and solves once on it.
func (pp *powerProblem) runSolve(f fault, states []*solveState, recs []*recorder, agree bool) (solveOutcome, error) {
	var out solveOutcome
	inj := faultnet.New(faultnet.Config{FailStop: map[int]int{f.victim: f.op}})
	inj.SetArmed(false)
	w, err := chantransport.NewWorld(ranks, chantransport.WithRecvTimeout(icc.DefaultRecvTimeout))
	if err != nil {
		return out, err
	}
	victimDied := false
	err = w.Run(func(ep *chantransport.Endpoint) error {
		r := ep.Rank()
		var tep transport.Endpoint = inj.Wrap(ep)
		var rec *recorder
		if recs != nil {
			rec = recs[r]
			tep = wrapTrace(tep, rec)
		}
		c, err := icc.New(tep)
		if err != nil {
			return err
		}
		err = pp.solve(c, states[r], f, inj, rec, agree, &out)
		if err == errVictim && r == f.victim {
			victimDied = true
			return nil
		}
		return err
	})
	if err == nil && !victimDied {
		err = errors.New("the scheduled fail-stop never fired")
	}
	return out, err
}

// runSurvivor runs one pass of survivor_power. Set-up is the problem and
// its serial reference, the per-rank buffers and survWarm warm-up solves.
func runSurvivor(seed int64, stop stopRule, traced bool) (*pass, error) {
	// ~50 small collectives in lock step per solve: one P (see the note on lives).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := &pass{}
	t0 := time.Now()
	pp := newPowerProblem()
	states := make([]*solveState, ranks)
	for r := range states {
		states[r] = newSolveState()
	}
	var clock func() float64
	if traced {
		clock = wallClock()
	}
	res.iters = pp.iters
	res.bytes = pp.iters * (8*powerDim + 8) // a Collectv of y and an 8-byte AllReduce per iteration
	var begun time.Time
	for t := -survWarm; ; t++ {
		if t == 0 {
			res.setup = time.Since(t0).Seconds()
			runtime.ReadMemStats(&res.mem0)
			begun = time.Now()
		}
		f := faultFor(seed, t, pp.iters)
		var recs []*recorder
		if traced && t >= 0 {
			recs = make([]*recorder, ranks)
			for r := range recs {
				recs[r] = newRecorder(r, clock)
				recs[r].setRound(t)
			}
		}
		start := time.Now()
		var round int32
		if recs != nil {
			round = recs[0].begin(kRound, "round")
		}
		out, err := pp.runSolve(f, states, recs, t < 0)
		if recs != nil {
			recs[0].end(round)
			res.recs = append(res.recs, recs...)
			res.recs0 = append(res.recs0, recs[0])
		}
		elapsed := time.Since(start).Seconds()
		if t < 0 {
			if err != nil {
				return res, fmt.Errorf("%s warm-up solve %d seed %d: %w", wSurvivor, t, seed, err)
			}
			res.agreeDurs = append(res.agreeDurs, out.agreeS)
			continue
		}
		res.attempted++
		relErr := math.Abs(out.lambda-pp.lambda) / pp.lambda
		switch {
		case err != nil:
			res.failed++
			fmt.Fprintf(os.Stderr, "FAILED: workload %s round %d seed %d (victim %d, iteration %d, op %d): %v\n", wSurvivor, t, seed, f.victim, f.armIter, f.op, err)
		case relErr > 1e-9 || out.iters != pp.iters || out.survivors != ranks-1:
			res.failed++
			fmt.Fprintf(os.Stderr, "FAILED CHECK: workload %s round %d seed %d: λ=%.15g in %d iterations on %d survivors, reference %.15g in %d\n",
				wSurvivor, t, seed, out.lambda, out.iters, out.survivors, pp.lambda, pp.iters)
		default:
			res.durs = append(res.durs, elapsed)
			res.recoverDurs = append(res.recoverDurs, out.recoverS)
			res.lambdaErr = math.Max(res.lambdaErr, relErr)
		}
		if stop.after(t, begun) {
			break
		}
	}
	runtime.ReadMemStats(&res.mem1)
	return res, nil
}
