package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	icc "repro"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// sim_scale: the one workload with large p. A round is one pass of a fixed
// script of timing-only simulations — the paper's Table 3 cells on the
// 16x32 Paragon mesh, then five collectives on a 256-rank three-level tree
// — each on a fresh simulated world. Its virtual time is deterministic and
// measures algorithm quality; its wall time measures the planner, plan
// building and the simnet engine at 256-512 ranks.
//
// The tree cells run under AlgAuto. The mesh cells run the shape AlgAuto
// would pick, resolved once per pass by one planner and handed to every
// rank with AlgShape: under AlgAuto each of the 512 simulated ranks owns a
// planner and enumerates the mesh's 7694 shapes itself (~15 ms each, 8 s a
// cell, 65 s a pass — measured), which is an artefact of simulating 512
// processes in one and would leave no room to repeat the pass. The virtual
// time is the same either way; a rank's own planning cost is the probe
// model.best_us.p512.

const (
	simRows, simCols = 16, 32
	simTreeRanks     = 256
	simRounds        = 10
	simSetups        = 3
)

var (
	simTreeSizes = []int{64, 8}
	simLengths   = []int{8, 64 * kib, mib}
	simMeshColls = []model.Collective{model.Bcast, model.Collect, model.AllReduce}
	simTreeColls = []model.Collective{model.AllReduce, model.Bcast, model.Collect, model.ReduceScatter, model.AllToAll}
)

// simCall issues collective coll with an n-byte vector on a timing-only
// communicator (buffers are never touched, so none are passed).
func simCall(c *icc.Comm, coll model.Collective, n int) error {
	p := c.Size()
	switch coll {
	case model.Bcast:
		return c.Bcast(nil, n, icc.Uint8, 0)
	case model.Collect:
		return c.Collectv(nil, core.EqualCounts(n, p), nil, icc.Uint8)
	case model.AllReduce:
		return c.AllReduce(nil, nil, n/8, icc.Float64, icc.Sum)
	case model.ReduceScatter:
		return c.ReduceScatter(nil, core.EqualCounts(n/8, p), nil, icc.Float64, icc.Sum)
	case model.AllToAll:
		per := n / p
		if per < 1 {
			per = 1
		}
		return c.AllToAll(nil, nil, per, icc.Uint8)
	}
	return fmt.Errorf("sim_scale: no call for %v", coll)
}

// simCell is one simulated call of the script and what it returned.
type simCell struct {
	tree bool
	coll model.Collective
	n    int
}

func simScript() []simCell {
	var cells []simCell
	for _, coll := range simMeshColls {
		for _, n := range simLengths {
			cells = append(cells, simCell{false, coll, n})
		}
	}
	for _, coll := range simTreeColls {
		for _, n := range simLengths {
			cells = append(cells, simCell{true, coll, n})
		}
	}
	return cells
}

// simOutcome is what one script pass produced.
type simOutcome struct {
	table3, tree float64 // virtual seconds of the two halves
	msgs         int64
	plannerCalls int64 // rank 0, summed over the cells
}

// simPass runs a script once. With recs non-nil, cell i records every
// rank's spans on recs[i] (virtual time).
func simPass(script []simCell, recs [][]*recorder) (simOutcome, error) {
	var out simOutcome
	mesh := model.NewPlanner(model.ParagonLike())
	for i, cell := range script {
		var cellRecs []*recorder
		traced := recs != nil
		p := simRows * simCols
		if cell.tree {
			p = simTreeRanks
		}
		if traced {
			cellRecs = make([]*recorder, p)
			recs[i] = cellRecs
		}
		fn := func(c *icc.Comm) error {
			if cell.tree {
				var err error
				if c, err = c.WithTopologyBySizes(simTreeSizes...); err != nil {
					return err
				}
			}
			var rec *recorder // nil: tracing off, every call on it a no-op
			if traced {
				rec = cellRecs[c.Rank()]
			}
			rec.setRound(0)
			round := rec.begin(kRound, "round")
			id := rec.begin(kCall, cell.coll.String())
			err := simCall(c, cell.coll, cell.n)
			rec.end(id)
			rec.end(round)
			if c.Rank() == 0 {
				out.plannerCalls += c.PlannerCalls()
			}
			return err
		}
		var opts []icc.Option
		if !cell.tree {
			shape, _ := mesh.Best(cell.coll, group.Mesh2D(simRows, simCols), cell.n)
			opts = []icc.Option{icc.WithAlg(icc.AlgShape(shape))}
		}
		seconds, msgs, err := simCellRun(cell, cellRecs, fn, opts)
		if err != nil {
			return out, fmt.Errorf("sim_scale cell %d (%v, %d B, tree=%v): %w", i, cell.coll, cell.n, cell.tree, err)
		}
		out.msgs += msgs
		if cell.tree {
			out.tree += seconds
		} else {
			out.table3 += seconds
		}
	}
	return out, nil
}

// simCellRun simulates one cell: the world icc.SimulateMesh or
// icc.SimulateHierarchy would build, on simnet.Run directly so that a traced
// cell can put the tracing wrapper between the simulated endpoint and
// icc.New. Traced and untraced cells take this one path; a test holds it to
// the public entry points' virtual time and message count.
func simCellRun(cell simCell, recs []*recorder, fn func(c *icc.Comm) error, opts []icc.Option) (seconds float64, msgs int64, err error) {
	cfg := simnet.Config{Rows: simRows, Cols: simCols, Machine: model.ParagonLike()}
	opts = append([]icc.Option{icc.WithMesh(simRows, simCols)}, opts...)
	if cell.tree {
		machines := model.RackLike().Machines
		levels := make([]simnet.Level, len(simTreeSizes))
		for l, sz := range simTreeSizes {
			levels[l] = simnet.Level{Size: sz, Alpha: machines[l].Alpha, Beta: machines[l].Beta}
		}
		cfg = simnet.Config{Rows: 1, Cols: simTreeRanks, Machine: machines[len(simTreeSizes)], Levels: levels}
		opts = nil
	}
	res, err := simnet.Run(cfg, func(ep *simnet.Endpoint) error {
		var tep transport.Endpoint = ep
		if recs != nil {
			recs[ep.Rank()] = newRecorder(ep.Rank(), ep.Now)
			tep = wrapTrace(ep, recs[ep.Rank()])
		}
		c, err := icc.New(tep, opts...)
		if err != nil {
			return err
		}
		return fn(c)
	})
	return res.Time, res.Messages, err
}

// simPredicted sums the planner's own prediction for every cell of the
// script: the cheapest flat hybrid on the mesh, and on the tree the cheaper
// of the coarse-network flat plan and the recursive hierarchy — the same
// comparison Comm makes under AlgAuto.
func simPredicted() (float64, error) {
	mesh := model.NewPlanner(model.ParagonLike())
	rack := model.RackLike()
	flat := model.NewPlanner(rack.At(0))
	topo, err := group.TopologyBySizes(simTreeRanks, simTreeSizes...)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, cell := range simScript() {
		n := cell.n
		if cell.coll == model.AllToAll && n < simTreeRanks {
			n = simTreeRanks
		}
		if !cell.tree {
			_, cost := mesh.Best(cell.coll, group.Mesh2D(simRows, simCols), n)
			total += cost
			continue
		}
		_, cost := flat.Best(cell.coll, group.Linear(simTreeRanks), n)
		total += math.Min(cost, rack.Cost(cell.coll, topo, float64(n)))
	}
	return total, nil
}

// runSim runs one pass of sim_scale: set-up is one cold script pass, a
// round is one more.
func runSim(stop stopRule, traced bool) (*pass, error) {
	// simnet hands one baton from rank to rank: one P (see the note on lives).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := &pass{}
	t0 := time.Now()
	ref, err := simPass(simScript(), nil)
	if err != nil {
		return res, err
	}
	res.setup = time.Since(t0).Seconds()
	res.simTable3, res.simTree, res.simMsgs = ref.table3, ref.tree, ref.msgs
	res.simSeconds = ref.table3 + ref.tree
	if res.simPredicted, err = simPredicted(); err != nil {
		return res, err
	}
	runtime.ReadMemStats(&res.mem0)
	begun := time.Now()
	for t := 0; ; t++ {
		var recs [][]*recorder
		if traced {
			recs = make([][]*recorder, len(simScript()))
		}
		start := time.Now()
		got, err := simPass(simScript(), recs)
		res.durs = append(res.durs, time.Since(start).Seconds())
		res.attempted++
		res.plannerCalls += got.plannerCalls
		if err != nil {
			res.failed++
			return res, err
		}
		// A timing-only simulation has no payload to check; its output is
		// its virtual time, which must repeat exactly.
		if got.table3 != ref.table3 || got.tree != ref.tree || got.msgs != ref.msgs {
			res.failed++
			fmt.Fprintf(os.Stderr, "FAILED CHECK: workload %s round %d: virtual time %.12g+%.12g s / %d msgs, first pass %.12g+%.12g s / %d msgs\n",
				wSim, t, got.table3, got.tree, got.msgs, ref.table3, ref.tree, ref.msgs)
		}
		if traced && t == 0 {
			// One traced script pass is ~10^5 spans; keep the first only.
			for _, cell := range recs {
				res.recs = append(res.recs, cell...)
				res.recs0 = append(res.recs0, cell[0])
			}
		}
		if stop.after(t, begun) {
			break
		}
	}
	runtime.ReadMemStats(&res.mem1)
	return res, nil
}
