package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	icc "repro"
	"repro/internal/chantransport"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/faultnet"
	"repro/internal/group"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/tcptransport"
	"repro/internal/transport"
)

// The layers pass: isolated probes that call each internal layer's
// exported functions directly, outside any workload. Each reports the
// median of a few repetitions; none is bounded.

// timeMedian returns the median over reps of f's wall time, in seconds.
func timeMedian(reps int, f func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = time.Since(t0).Seconds()
	}
	return median(ds)
}

// timePer is timeMedian of batches of n calls, per call.
func timePer(reps, n int, f func()) float64 {
	return timeMedian(reps, func() {
		for i := 0; i < n; i++ {
			f()
		}
	}) / float64(n)
}

// mallocsPer returns the process-wide heap allocations per call of f over
// n calls. Other goroutines must be idle for the count to be f's own.
func mallocsPer(n int, f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// nullEndpoint is a transport on which every operation returns at once:
// Plan.Execute over it is the library's own cost above the transport. It
// carries data (buffers are sliced and combined as on a real transport)
// but moves none.
type nullEndpoint struct{ rank, size int }

func (e nullEndpoint) Rank() int                                          { return e.rank }
func (e nullEndpoint) Size() int                                          { return e.size }
func (e nullEndpoint) Close() error                                       { return nil }
func (e nullEndpoint) Send(int, transport.Tag, []byte) error              { return nil }
func (e nullEndpoint) Recv(_ int, _ transport.Tag, p []byte) (int, error) { return len(p), nil }
func (e nullEndpoint) SendRecv(_ int, _ transport.Tag, _ []byte, _ int, _ transport.Tag, rp []byte) (int, error) {
	return len(rp), nil
}

// probeModel times the planner on the grid of sim_scale's mesh cells:
// {Bcast, Collect, AllReduce} x {8 B, 64 KiB, 1 MiB}.
func probeModel(v values) error {
	mach := model.ParagonLike()
	best := func(l group.Layout) func() {
		return func() {
			pl := model.NewPlanner(mach) // fresh: shape enumeration is part of the cost
			for _, c := range simMeshColls {
				for _, n := range simLengths {
					pl.Best(c, l, n)
				}
			}
		}
	}
	mesh := group.Mesh2D(simRows, simCols)
	v.set("model.best_us.p4", timeMedian(21, best(group.Linear(ranks)))*1e6)
	v.set("model.best_us.p512", timeMedian(7, best(mesh))*1e6)
	v.set("model.explain_us.p512", timeMedian(7, func() {
		model.NewPlanner(mach).Explain(model.AllReduce, mesh, 64*kib, 0)
	})*1e6)
	v.set("model.shapes.p512", float64(len(model.NewPlanner(mach).Shapes(mesh))))
	topo, err := group.TopologyBySizes(simTreeRanks, simTreeSizes...)
	if err != nil {
		return err
	}
	rack := model.RackLike()
	v.set("model.hier_cost_us", timePer(7, 20, func() { rack.Cost(model.AllReduce, topo, mib) })*1e6)
	samples := make([]model.Sample, 64)
	for i := range samples {
		n := 64 << (i % 13)
		samples[i] = model.Sample{Bytes: n, Seconds: 1e-6 + float64(n)*1e-9 + float64(i%5)*1e-8}
	}
	var fitErr error
	v.set("model.fit_us", timePer(7, 100, func() { _, _, _, fitErr = model.FitAlphaBeta(samples) })*1e6)
	return fitErr
}

// calibration is one live transport's fitted machine.
type calibration struct {
	mach model.Machine
	r2   float64
}

// probeCalibrate runs one icc.Calibrate per live transport. The fitted
// constants are the yardstick the workloads' all-reduce medians are read
// against; they never feed a planner the workloads use.
func probeCalibrate(v values) (map[string]calibration, error) {
	cals := map[string]calibration{}
	for _, tr := range []string{"chan", "tcp"} {
		var prof *icc.Profile
		_, err := world(tr, nil, func(c *icc.Comm) error {
			p, err := icc.Calibrate(c, icc.CalibrateOptions{})
			if c.Rank() == 0 {
				prof = p
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("calibrate %s: %w", tr, err)
		}
		cal := calibration{mach: prof.Machine}
		if prof.Bounds != nil {
			cal.r2 = prof.Bounds.R2
		}
		cals[tr] = cal
		v.set("model.alpha_us."+tr, cal.mach.Alpha*1e6)
		v.set("model.MBps."+tr, 1/cal.mach.Beta/1e6)
		v.set("model.fit_r2."+tr, cal.r2)
	}
	return cals, nil
}

// predictedAllReduce is the calibrated model's time for an n-byte
// all-reduce on the 4-rank linear array: the planner's best shape priced
// with the fitted machine.
func (c calibration) predictedAllReduce(n int) float64 {
	_, cost := model.NewPlanner(c.mach).Best(model.AllReduce, group.Linear(ranks), n)
	return cost
}

func probeCore(v values) error {
	mach := model.ParagonLike()
	pl := model.NewPlanner(mach)
	build := func(p, n int) (*core.Plan, error) {
		ctx := core.NewCtx(nullEndpoint{0, p}, 1)
		ctx.Machine = &mach
		l := group.Linear(p)
		shape := func(c model.Collective) model.Shape { s, _ := pl.Best(c, l, n); return s }
		ar, err := core.BuildAllReduce(ctx, shape(model.AllReduce), n/8, datatype.Float64, datatype.Sum)
		if err != nil {
			return nil, err
		}
		if _, err := core.BuildBcast(ctx, shape(model.Bcast), 0, n, 1); err != nil {
			return nil, err
		}
		if _, err := core.BuildCollect(ctx, shape(model.Collect), core.EqualCounts(n, p), 1); err != nil {
			return nil, err
		}
		return ar, nil
	}
	var err error
	keep := func(_ *core.Plan, e error) {
		if e != nil {
			err = e
		}
	}
	v.set("core.build_us.p4_1KiB", timePer(7, 20, func() { keep(build(ranks, kib)) })*1e6)
	v.set("core.build_us.p256_1MiB", timeMedian(7, func() { keep(build(simTreeRanks, mib)) })*1e6)
	if err != nil {
		return err
	}
	for _, sz := range []struct {
		n     int
		label string
		reps  int
	}{{kib, "1KiB", 2000}, {4 * mib, "4MiB", 5}} {
		plan, err := build(ranks, sz.n)
		if err != nil {
			return err
		}
		bs := core.Buffers{Buf: make([]byte, plan.BufLen), Tmp: make([]byte, plan.TmpLen), Scratch: make([]byte, plan.ScratchLen)}
		ep := nullEndpoint{0, ranks}
		exec := func() { keep(nil, plan.Execute(ep, &mach, bs)) }
		v.set("core.execute_null_us."+sz.label, timePer(7, sz.reps, exec)*1e6)
		if sz.n == kib {
			v.set("core.plan_steps.allreduce_p4", float64(plan.Steps()))
			v.set("core.execute_null_allocs", mallocsPer(1000, exec))
		}
	}
	return err
}

func probeDatatype(v values) error {
	// 32 MiB per array: several times this machine's last-level cache, so
	// the kernels stream from memory as the 4 MiB collectives' combines do
	// once four ranks' buffers are in flight.
	const n = 32 * mib
	dst, src := make([]byte, n), make([]byte, n)
	// Every 8 bytes hold float64 1.0, which also reads as harmless float32
	// and int32 pairs: no kernel meets a NaN or a denormal.
	for i := 0; i < n/8; i++ {
		putF64(dst, i, 1)
		putF64(src, i, 1)
	}
	gbps := func(f func()) float64 { return n / timeMedian(3, f) / 1e9 }
	var err error
	apply := func(t datatype.Type, o datatype.Op, d, s []byte) func() {
		return func() {
			if e := datatype.Apply(t, o, d, s); e != nil {
				err = e
			}
		}
	}
	f64 := gbps(apply(datatype.Float64, datatype.Sum, dst, src))
	v.set("datatype.apply_GBps.f64_sum", f64)
	v.set("datatype.apply_GBps.u8_sum", gbps(apply(datatype.Uint8, datatype.Sum, dst, src)))
	v.set("datatype.apply_GBps.i32_max", gbps(apply(datatype.Int32, datatype.Max, dst, src)))
	v.set("datatype.apply_GBps.f32_prod", gbps(apply(datatype.Float32, datatype.Prod, dst, src)))
	cp := gbps(func() { copy(dst, src) })
	v.set("datatype.copy_GBps", cp)
	v.set("datatype.apply_over_copy.f64_sum", cp/f64)
	v.set("datatype.apply_ns.f64_sum_1KiB", timePer(7, 2000, apply(datatype.Float64, datatype.Sum, dst[:kib], src[:kib]))*1e9)
	return err
}

// probeTransport measures one bare transport: ping-pong and streaming
// between ranks 0 and 1 with the calibration probes, then an 8-byte
// SendRecv ring and a Send/Recv ring over all four ranks.
func probeTransport(v values, tr, layer string) error {
	const ringOps = 2000
	pc := model.ProbeConfig{Sizes: []int{8, mib}, Reps: 15, Warmup: 3, Burst: 8, Tag: 7}
	var pingpong, stream, sendrecv, sendrecvAllocs, recvAllocs float64
	var phase1, phase2 sync.WaitGroup // barriers between the phases, outside the transport
	phase1.Add(ranks)
	phase2.Add(ranks)
	body := func(ep transport.Endpoint) error {
		r, p := ep.Rank(), ep.Size()
		// A rank that fails still reaches both barriers, so the others are
		// not left waiting for it.
		var err error
		if r < 2 {
			var samples []model.Sample
			var secs float64
			if samples, err = model.PingPong(ep, 1-r, r == 0, pc); err == nil {
				secs, err = model.EagerSweep(ep, 1-r, r == 0, pc)
			}
			if r == 0 && err == nil {
				pingpong = samples[0].Seconds
				stream = float64(pc.Burst) * mib / secs
			}
		}
		phase1.Done()
		phase1.Wait()
		sb, rb := make([]byte, 8), make([]byte, 8)
		right, left := (r+1)%p, (r+p-1)%p
		ring := func(sendrecv bool) (perOp, allocs float64) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for i := 0; i < ringOps && err == nil; i++ {
				if sendrecv {
					_, err = ep.SendRecv(right, 9, sb, left, 9, rb)
				} else if err = ep.Send(right, 9, sb); err == nil {
					_, err = ep.Recv(left, 9, rb)
				}
			}
			d := time.Since(t0).Seconds()
			runtime.ReadMemStats(&m1)
			// Mallocs is process-wide: the four ranks run the same loop at
			// once, so a quarter of the delta is one rank's share.
			return d / ringOps, float64(m1.Mallocs-m0.Mallocs) / ringOps / float64(p)
		}
		us, allocs := ring(true)
		if r == 0 {
			sendrecv, sendrecvAllocs = us, allocs
		}
		phase2.Done()
		phase2.Wait()
		if _, allocs = ring(false); r == 0 {
			recvAllocs = allocs
		}
		return err
	}
	if _, err := eachRank(tr, body); err != nil {
		return fmt.Errorf("%s probe: %w", layer, err)
	}
	v.set(layer+".pingpong_us", pingpong*1e6)
	v.set(layer+".stream_MBps", stream/1e6)
	v.set(layer+".sendrecv_us", sendrecv*1e6)
	v.set(layer+".sendrecv_allocs", sendrecvAllocs)
	v.set(layer+".recv_allocs", recvAllocs)
	return nil
}

func probeSetup(v values) error {
	var err error
	v.set("chantransport.world_setup_us", timeMedian(21, func() {
		if _, e := chantransport.NewWorld(ranks); e != nil {
			err = e
		}
	})*1e6)
	v.set("tcptransport.mesh_setup_ms", timeMedian(7, func() {
		eps, e := tcptransport.NewLocalWorld(ranks)
		if e != nil {
			err = e
			return
		}
		for _, ep := range eps {
			ep.Close()
		}
	})*1e3)
	return err
}

// probeHarness is the paper's headline: the geometric mean over the nine
// Table 3 cells of NX time over InterCom time on the simulated Paragon.
func probeHarness(v values) error {
	mach := model.ParagonLike()
	pl := model.NewPlanner(mach)
	logSum, cells := 0.0, 0
	for i, op := range []harness.Op{harness.OpBcast, harness.OpCollect, harness.OpGlobalSum} {
		for _, n := range simLengths {
			nx, err := harness.RunNX(op, simRows, simCols, n, mach)
			if err != nil {
				return err
			}
			shape, _ := pl.Best(simMeshColls[i], group.Mesh2D(simRows, simCols), n)
			ic, err := harness.RunICC(op, simRows, simCols, n, mach, shape)
			if err != nil {
				return err
			}
			logSum += math.Log(nx / ic)
			cells++
		}
	}
	v.set("harness.nx_over_icc_geomean", math.Exp(logSum/float64(cells)))
	return nil
}

// probeGroup times building the 256-rank three-level topology and
// attaching it to a communicator, on rank 0 of a simulated world.
func probeGroup(v values) error {
	var secs float64
	_, err := icc.SimulateHierarchy(simTreeRanks, simTreeSizes, model.RackLike().Machines, false, func(c *icc.Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		var err error
		secs = timeMedian(5, func() {
			if _, e := group.TopologyBySizes(simTreeRanks, simTreeSizes...); e != nil {
				err = e
			}
			if _, e := c.WithTopologyBySizes(simTreeSizes...); e != nil {
				err = e
			}
		})
		return err
	})
	v.set("group.topology_us", secs*1e6)
	return err
}

// probeSub times Comm.Sub over all four ranks.
func probeSub(v values) error {
	_, err := world("chan", nil, func(c *icc.Comm) error {
		all := []int{0, 1, 2, 3}
		var err error
		secs := timePer(7, 200, func() {
			if _, e := c.Sub(all); e != nil {
				err = e
			}
		})
		if c.Rank() == 0 {
			v.set("icc.sub_us", secs*1e6)
		}
		return err
	})
	return err
}

// probeFaultnet runs short_blocking rounds through a disarmed injector and
// bare, and reports the ratio of the median round times.
func probeFaultnet(v values, seed int64) error {
	const rounds = 1500
	inj := faultnet.New(faultnet.Config{})
	inj.SetArmed(false)
	var p50 [2]float64
	for i, wrap := range []wrapper{
		func(_ int, ep transport.Endpoint) transport.Endpoint { return inj.Wrap(ep) },
		nil,
	} {
		res, err := runLive(lives[0], seed, stopRule{maxRounds: rounds}, false, wrap)
		if err != nil {
			return err
		}
		p50[i] = median(res.durs)
	}
	v.set("faultnet.disarmed_overhead_ratio", p50[0]/p50[1])
	return nil
}

// runProbes is the layers pass.
func runProbes(seed int64) (values, map[string]calibration, error) {
	v := values{}
	cals, err := probeCalibrate(v)
	if err != nil {
		return v, nil, err
	}
	for _, probe := range []func(values) error{
		probeModel, probeCore, probeDatatype,
		func(v values) error { return probeTransport(v, "chan", "chantransport") },
		func(v values) error { return probeTransport(v, "tcp", "tcptransport") },
		probeSetup, probeHarness, probeGroup, probeSub,
		func(v values) error { return probeFaultnet(v, seed) },
	} {
		if err := probe(v); err != nil {
			return v, cals, err
		}
	}
	return v, cals, nil
}
