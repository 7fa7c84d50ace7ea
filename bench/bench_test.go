package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	icc "repro"
	"repro/internal/chantransport"
	"repro/internal/faultnet"
	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/simnet"
	"repro/internal/tcptransport"
	"repro/internal/transport"
)

// inTemp runs the test in a scratch directory, so the traced passes leave
// their bench/out/ files there and not in the repository.
func inTemp(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload for two rounds — untraced, traced, and the
// layer probes — and checks that every registered metric comes out exactly
// where it applies, finite and well named, with no failed round, and that
// both of the driver's metric lists can be served for every workload.
//
// Under -short (the race pass) sim_scale is left to the full `go test`
// run: six script passes of 512 simulated ranks take a
// minute under the race detector, and TestTracerForwardsCapabilities runs
// the same simulation code, traced and untraced, on a three-cell script.
func TestSmoke(t *testing.T) {
	inTemp(t)
	workloads := "all"
	if testing.Short() {
		workloads = strings.Join(all(wSim), ",")
	}
	rep, tally, names, err := measure(options{workload: workloads, seed: 1, rounds: 2, setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tally.failed != 0 || tally.attempted == 0 {
		t.Fatalf("%d of %d rounds failed", tally.failed, tally.attempted)
	}
	if m := rep.missing(names); m != nil {
		t.Fatalf("metrics not produced: %v", m)
	}
	rows, err := rep.rows()
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]metric{}
	for _, m := range allMetrics() {
		if _, dup := registered[m.name]; dup {
			t.Errorf("metric %s registered twice", m.name)
		}
		registered[m.name] = m
	}
	seen := map[[2]string]bool{}
	for _, r := range rows {
		m, ok := registered[r.Metric]
		switch {
		case !ok:
			t.Errorf("%s/%s is not in the registry", r.Workload, r.Metric)
		case !m.appliesTo(r.Workload):
			t.Errorf("%s emitted for %s, where it does not apply", r.Metric, r.Workload)
		case seen[[2]string{r.Workload, r.Metric}]:
			t.Errorf("%s/%s emitted twice", r.Workload, r.Metric)
		case !nameRE.MatchString(r.Metric):
			t.Errorf("metric name %q is malformed", r.Metric)
		case math.IsNaN(r.Value) || math.IsInf(r.Value, 0):
			t.Errorf("%s/%s = %v", r.Workload, r.Metric, r.Value)
		}
		seen[[2]string{r.Workload, r.Metric}] = true
	}
	for _, w := range names {
		if v := rep[w]["failed_frac"].Value; v != 0 {
			t.Errorf("%s failed_frac = %v", w, v)
		}
		if _, err := os.Stat(filepath.Join(outDir, "trace_"+w+".json")); err != nil {
			t.Errorf("no Chrome trace for %s: %v", w, err)
		}
		if len(names) < len(workloadNames) {
			continue // the per-layer list draws on every workload
		}
		for _, list := range [][]string{driverEndToEnd, driverPerLayer()} {
			if err := driverLine(rep, w, list, tally); err != nil {
				t.Errorf("driver result for %s: %v", w, err)
			}
		}
	}
}

// TestDriverForms runs the two forms the driver uses on one workload and
// checks that each prints every metric BENCHMARK.json promises for it.
func TestDriverForms(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's traced pass a second time")
	}
	inTemp(t)
	for _, tc := range []struct {
		trace string
		want  []string
	}{{"0", driverEndToEnd}, {"1", driverPerLayer()}} {
		rep, tally, names, err := measure(options{workload: wPersist, seed: 3, rounds: 2, setups: 1, trace: tc.trace})
		if err != nil {
			t.Fatalf("-trace %s: %v", tc.trace, err)
		}
		if err := driverLine(rep, names[0], tc.want, tally); err != nil {
			t.Errorf("-trace %s: %v", tc.trace, err)
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json at the repository root
// the file `bench/run.sh -spec` prints, and within the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `bench/run.sh -spec > BENCHMARK.json`")
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(want, &spec); err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	names := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || names[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		names[n] = true
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	hasSetup := false
	for _, w := range spec.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, m := range spec.EndToEnd {
		name(m.Name)
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if !hasSetup {
		t.Error("no setup_s in end_to_end")
	}
	// 4 + 22 runs per workload, each the measurement plus its set-up and
	// run.sh's cached build (measured: 2 s, 6.5 s on sim_scale), within the
	// driver's 3420 s less two cold builds and a margin.
	if runs := 4 + 22*len(spec.Workloads); float64(runs)*(float64(spec.RunSeconds)+4) > 3420-240 {
		t.Errorf("%d runs of %d s do not fit the driver's budget", runs, spec.RunSeconds)
	}
}

// TestBaselineComplete: baseline.json, the first recorded run, claims no
// gain and holds every registered metric for every workload it applies to.
func TestBaselineComplete(t *testing.T) {
	f, err := readResults("baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if f.Claim != nil || len(f.Runs) == 0 {
		t.Fatalf("claim %v, %d runs; want no claim and a run", f.Claim, len(f.Runs))
	}
	for _, r := range f.Runs {
		rep := report{}
		for _, row := range r.Rows {
			rep.of(row.Workload)[row.Metric] = row
		}
		if m := rep.missing(workloadNames); m != nil {
			t.Errorf("the run of seed %d lacks %v", r.Seed, m)
		}
	}
}

// capabilities lists which of the optional interfaces the library plans by
// (or recovers through) an endpoint offers: the ones a wrapper must offer
// exactly when the endpoint it wraps does.
func capabilities(ep transport.Endpoint) map[string]bool {
	_, clock := ep.(transport.Clock)
	_, carrier := ep.(transport.DataCarrier)
	_, sizes := ep.(transport.SizeSender)
	_, aborter := ep.(transport.Aborter)
	_, recoverer := ep.(transport.Recoverer)
	_, machine := ep.(interface{ Machine() model.Machine })
	_, twoLevel := ep.(interface{ TwoLevel() model.TwoLevel })
	_, hierarchy := ep.(interface{ Hierarchy() model.Hierarchy })
	return map[string]bool{
		"Clock": clock, "DataCarrier": carrier, "SizeSender": sizes, "Aborter": aborter,
		"Recoverer": recoverer, "Machine": machine, "TwoLevel": twoLevel, "Hierarchy": hierarchy,
	}
}

// readmitStub is an endpoint that can readmit, and counts the calls.
type readmitStub struct {
	nullEndpoint
	readmitted, adopted int
}

func (s *readmitStub) Readmit(int) error     { s.readmitted++; return nil }
func (s *readmitStub) AdoptEpoch(int, []int) { s.adopted++ }

// TestTracerForwardsCapabilities: the tracing endpoint offers exactly the
// optional capabilities of the endpoint it wraps, on every transport the
// benchmark wraps; it forwards readmission to an endpoint that has it and
// refuses it on one that has not; and a traced simulation is the same
// simulation — same plan, same virtual time, same message count — as the
// public Simulate* entry points run.
func TestTracerForwardsCapabilities(t *testing.T) {
	trace := func(ep transport.Endpoint) transport.Endpoint {
		return wrapTrace(ep, newRecorder(ep.Rank(), wallClock()))
	}
	check := func(name string, ep transport.Endpoint) {
		t.Helper()
		bare, wrapped := capabilities(ep), capabilities(trace(ep))
		for c, has := range bare {
			if wrapped[c] != has {
				t.Errorf("%s: capability %s: endpoint %v, traced endpoint %v", name, c, has, wrapped[c])
			}
		}
		// Readmitter is offered always, as faultnet's wrapper offers it, and
		// must work whenever the endpoint's own does.
		if _, can := ep.(transport.Readmitter); !can {
			if ok, err := transport.Readmit(trace(ep), 1); !ok || err == nil {
				t.Errorf("%s: readmission through the traced endpoint: offered %v, error %v; the endpoint has none", name, ok, err)
			}
		}
	}
	stub := &readmitStub{nullEndpoint: nullEndpoint{0, 2}}
	if ok, err := transport.Readmit(trace(stub), 1); !ok || err != nil || stub.readmitted != 1 {
		t.Errorf("Readmit not forwarded: offered %v, error %v, %d calls reached the endpoint", ok, err, stub.readmitted)
	}
	if trace(stub).(transport.Readmitter).AdoptEpoch(1, nil); stub.adopted != 1 {
		t.Errorf("AdoptEpoch not forwarded: %d calls reached the endpoint", stub.adopted)
	}
	w, err := chantransport.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	cep, err := w.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	check("chan", cep)
	check("faultnet over chan", faultnet.New(faultnet.Config{}).Wrap(cep))
	teps, err := tcptransport.NewLocalWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	check("tcp", teps[0])
	for _, ep := range teps {
		ep.Close()
	}
	if _, err := simnet.Run(simnet.Config{Rows: 1, Cols: 2, Machine: model.ParagonLike()}, func(ep *simnet.Endpoint) error {
		if ep.Rank() == 0 {
			check("simnet", ep)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	script := []simCell{{false, model.AllReduce, 64 * kib}, {true, model.AllReduce, 64 * kib}, {true, model.Collect, mib}}
	bare, err := simPass(script, nil)
	if err != nil {
		t.Fatal(err)
	}
	if public, err := publicSimPass(script); err != nil || public != bare {
		t.Errorf("the public Simulate* entry points give %+v (error %v), the benchmark's cell runner %+v", public, err, bare)
	}
	recs := make([][]*recorder, len(script))
	traced, err := simPass(script, recs)
	if err != nil {
		t.Fatal(err)
	}
	if bare != traced {
		t.Errorf("traced simulation differs: %+v untraced, %+v traced", bare, traced)
	}
	var flat []*recorder
	for _, cell := range recs {
		flat = append(flat, cell...)
	}
	if st := analyze(flat, nil, 1); st.msgs != bare.msgs || st.errors != 0 {
		t.Errorf("the wrapper recorded %d messages and %d errors; simnet delivered %d", st.msgs, st.errors, bare.msgs)
	}
}

// publicSimPass runs a script as simPass does, through icc.SimulateMesh and
// icc.SimulateHierarchy instead of the benchmark's own cell runner.
func publicSimPass(script []simCell) (simOutcome, error) {
	var out simOutcome
	planner := model.NewPlanner(model.ParagonLike())
	for _, cell := range script {
		var calls int64
		fn := func(c *icc.Comm) (err error) {
			if cell.tree {
				if c, err = c.WithTopologyBySizes(simTreeSizes...); err != nil {
					return err
				}
			}
			err = simCall(c, cell.coll, cell.n)
			if c.Rank() == 0 {
				calls = c.PlannerCalls()
			}
			return err
		}
		var res icc.SimResult
		var err error
		if cell.tree {
			res, err = icc.SimulateHierarchy(simTreeRanks, simTreeSizes, model.RackLike().Machines, false, fn)
			out.tree += res.Seconds
		} else {
			shape, _ := planner.Best(cell.coll, group.Mesh2D(simRows, simCols), cell.n)
			res, err = icc.SimulateMesh(simRows, simCols, icc.ParagonMachine(), false, fn, icc.WithAlg(icc.AlgShape(shape)))
			out.table3 += res.Seconds
		}
		if err != nil {
			return out, err
		}
		out.msgs += res.Messages
		out.plannerCalls += calls
	}
	return out, nil
}

// TestCompare: a worsening beyond the bound is a breach, within it is not,
// and a noisy base makes the metric unresolved instead; failed_frac may not
// rise in any run; an exact metric must be one number in every run of both
// files; an end-to-end metric B stops emitting is a breach.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	// sample is what one run reports; drop names a metric it leaves out.
	type sample struct {
		runS, spread, failed, simS, msgs float64
		drop                             string
	}
	good := sample{runS: 100, spread: 0.01, simS: 0.5, msgs: 476}
	write := func(name string, runs ...sample) string {
		var f resultsFile
		for _, s := range runs {
			var rows []row
			for _, r := range []row{
				{Workload: wShort, Metric: "run_s", Value: s.runS, Spread: s.spread}, // bounded at 0.10
				{Workload: wShort, Metric: "failed_frac", Value: s.failed},
				{Workload: wShort, Metric: "icc.call_self_us", Value: s.runS / 100},
				{Workload: wSim, Metric: "sim_s", Value: s.simS},
				{Workload: wSurvivor, Metric: "transport.msgs_per_round", Value: s.msgs},
			} {
				if r.Metric != s.drop {
					rows = append(rows, r)
				}
			}
			f.Runs = append(f.Runs, run{Rows: rows})
		}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	with := func(change func(*sample)) sample {
		s := good
		change(&s)
		return s
	}
	runS := func(x float64) sample { return with(func(s *sample) { s.runS = x }) }
	// tenWith is ten runs, four of them changed: the median run is a good one.
	tenWith := func(change func(*sample)) []sample {
		runs := make([]sample, 10)
		for i := range runs {
			runs[i] = good
			if i%3 == 0 {
				change(&runs[i])
			}
		}
		return runs
	}
	base := write("base.json", good)
	for _, tc := range []struct {
		name   string
		other  string
		breach bool
	}{
		{"the same", write("same.json", good), false},
		{"within the bound", write("ok.json", runS(108)), false},
		{"beyond the bound", write("slow.json", runS(115)), true},
		{"faster", write("fast.json", runS(50)), false},
		{"noisy, so unresolved", write("noisy.json", with(func(s *sample) { s.runS, s.spread = 115, 0.2 })), false},
		{"noisy across runs, so unresolved", write("runs.json", runS(90), runS(100), runS(130), runS(160), runS(115)), false},
		{"a failed round", write("failed.json", with(func(s *sample) { s.failed = 0.001 })), true},
		{"failed rounds in four runs of ten", write("failed4.json", tenWith(func(s *sample) { s.failed = 0.001 })...), true},
		{"sim_s moved", write("sim.json", with(func(s *sample) { s.simS = 0.6 })), true},
		{"sim_s moved in four runs of ten", write("sim4.json", tenWith(func(s *sample) { s.simS = 0.6 })...), true},
		{"an end-to-end metric no longer emitted", write("norun.json", with(func(s *sample) { s.drop = "run_s" })), true},
		{"a per-layer metric no longer emitted", write("noself.json", with(func(s *sample) { s.drop = "icc.call_self_us" })), false},
		{"survivor_power's message count moved", write("msgs.json", with(func(s *sample) { s.msgs = 477 })), false},
	} {
		if err := compareFiles(base, tc.other); (err != nil) != tc.breach {
			t.Errorf("%s: breach = %v, want %v", tc.name, err != nil, tc.breach)
		}
	}
	// A message count is exact where no fault is injected, and only there.
	msgs := registry()["transport.msgs_per_round"]
	a, b := &series{values: []float64{476}}, &series{values: []float64{477}}
	if _, _, _, verdict := judge(msgs, wShort, a, b); verdict != "differs" {
		t.Errorf("transport.msgs_per_round moved on %s: verdict %q, want differs", wShort, verdict)
	}
	if _, _, _, verdict := judge(msgs, wSurvivor, a, b); verdict != "" {
		t.Errorf("transport.msgs_per_round moved on %s: verdict %q, want none", wSurvivor, verdict)
	}
}

// TestSplit checks that the segments of a run share out all of its rounds
// and all of its time, and that no segment is left without a round.
func TestSplit(t *testing.T) {
	for _, tc := range []struct {
		rule     stopRule
		k, wantK int
	}{
		{stopRule{maxRounds: 10}, 3, 3},
		{stopRule{maxRounds: 2}, 31, 2},
		{stopRule{budget: 18 * time.Second}, 31, 31},
		{stopRule{maxRounds: 7, budget: time.Second}, 1, 1},
	} {
		shares := tc.rule.split(tc.k)
		if len(shares) != tc.wantK {
			t.Fatalf("%+v split %d ways: %d shares, want %d", tc.rule, tc.k, len(shares), tc.wantK)
		}
		var rounds int
		var budget time.Duration
		for _, s := range shares {
			if tc.rule.maxRounds > 0 && s.maxRounds == 0 {
				t.Errorf("%+v split %d ways: a share without a round", tc.rule, tc.k)
			}
			rounds += s.maxRounds
			budget += s.budget
		}
		if rounds != tc.rule.maxRounds || tc.rule.budget-budget >= time.Duration(tc.wantK) {
			t.Errorf("%+v split %d ways: shares hold %d rounds and %v", tc.rule, tc.k, rounds, budget)
		}
	}
}
