// Command bench is the library's one benchmark: six named closed-loop
// workloads, end-to-end metrics measured with tracing off, and a per-layer
// ledger measured from outside the library — a span-recording transport
// wrapper, spans around the public Comm calls, and isolated probes of each
// internal layer. README.md in this directory says how to run it and what
// every metric means; BENCHMARK.json at the repository root is its contract
// with the driver.
//
//	bench/run.sh                                    every workload: untraced, traced, layers
//	bench/run.sh -workload tcp_mixed                one workload, all three passes
//	bench/run.sh -workload tcp_mixed -seconds 10 -trace 0    the driver's form
//	bench/run.sh -json A.json                       append the run to A.json
//	bench/run.sh -compare A.json B.json             check B against A
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// traceFraction is the share of a workload's fixed rounds its traced pass
// runs; ownerFraction the share a driver run spends on each other workload
// to read the per-layer metrics only that workload can supply.
const (
	traceFraction = 10
	ownerFraction = 100
	outDir        = "bench/out"
	// maxTracedRounds caps a traced pass: short_blocking records ~350
	// spans a round, so 3000 rounds is a million spans and ~60 MB.
	maxTracedRounds = 3000
)

func liveByName(name string) *live {
	for i := range lives {
		if lives[i].name == name {
			return &lives[i]
		}
	}
	return nil
}

// fixedRounds is the fixed work of a full run and setupsOf the number of
// segments, each with a set-up of its own, the untraced pass is cut into.
func fixedRounds(name string) int {
	switch name {
	case wSim:
		return simRounds
	case wSurvivor:
		return survRounds
	}
	return liveByName(name).rounds
}

// tracedRounds is the length of a traced pass: the workload's fixed rounds
// over div, at least one, at most maxTracedRounds (the smoke tests' round
// count, when they set one).
func (o options) tracedRounds(name string, div int) int {
	if o.rounds > 0 {
		return o.rounds
	}
	return min(max(fixedRounds(name)/div, 1), maxTracedRounds)
}

func setupsOf(name string) int {
	switch name {
	case wSim:
		return simSetups
	case wSurvivor:
		return survSetups
	}
	return liveByName(name).setups
}

// runPass runs one pass of the named workload.
func runPass(name string, seed int64, stop stopRule, traced bool) (*pass, error) {
	switch name {
	case wSim:
		return runSim(stop, traced)
	case wSurvivor:
		return runSurvivor(seed, stop, traced)
	}
	return runLive(*liveByName(name), seed, stop, traced, nil)
}

// tally sums rounds attempted and failed over the passes of an invocation.
type tally struct{ attempted, failed int }

func (t *tally) add(p *pass) { t.attempted += p.attempted; t.failed += p.failed }

// segmentSeeds is the stride between the seeds of two runs' segments; no
// workload cuts a run into more segments than this.
const segmentSeeds = 64

// untraced runs the end-to-end pass. The run is cut into as many segments
// as set-up is repeated; each segment builds a fresh world — its set-up is
// one sample of setup_s — and runs its share of the timed rounds, which are
// pooled. Set-ups are thus spread over the whole run as the rounds are, and
// the medians of both ride out a slow spell of the host the same way:
// bunched at the start of a run, set-up moved with every burst (ten-run
// medians of setup_s 43 % apart when those of round_p50_us were 12 %).
// Each segment draws its inputs from a seed of its own. It fills the
// end-to-end metrics and the per-layer ones read off an untraced pass, and
// returns the segments pooled into one pass.
func untraced(name string, seed int64, stop stopRule, setups int, v values, t *tally) (*pass, error) {
	all := &pass{}
	var setupTimes, samples []float64
	var mallocs, allocBytes, gcPauseNs uint64
	var gcCycles uint32
	for i, share := range stop.split(setups) {
		p, err := runPass(name, seed*segmentSeeds+int64(i), share, false)
		t.add(p)
		if err != nil {
			return p, err
		}
		setupTimes = append(setupTimes, p.setup)
		// The root rotates with the round, and a round's cost depends on
		// where rank 0 sits relative to the root, so the samples behind the
		// median are whole rotations (per round): the same mixture every time.
		if liveByName(name) != nil {
			samples = append(samples, rotations(p.durs, ranks)...)
		} else {
			samples = append(samples, p.durs...)
		}
		mallocs += p.mem1.Mallocs - p.mem0.Mallocs
		allocBytes += p.mem1.TotalAlloc - p.mem0.TotalAlloc
		gcCycles += p.mem1.NumGC - p.mem0.NumGC
		gcPauseNs += p.mem1.PauseTotalNs - p.mem0.PauseTotalNs
		all.durs = append(all.durs, p.durs...)
		all.recoverDurs = append(all.recoverDurs, p.recoverDurs...)
		all.attempted += p.attempted
		all.failed += p.failed
		all.bytes, all.simSeconds = p.bytes, p.simSeconds
	}
	if all.rounds() == 0 {
		return all, fmt.Errorf("%s: no round completed", name)
	}
	n := float64(all.rounds())
	runS := sum(all.durs)
	v.setN("setup_s", median(setupTimes), len(setupTimes), iqrShare(setupTimes))
	v.setN("run_s", runS, all.rounds(), blockSpread(all.durs, sum))
	v.setN("round_p50_us", median(samples)*1e6, len(samples), blockSpread(samples, median))
	v.setN("round_mean_us", runS/n*1e6, all.rounds(), blockSpread(all.durs, sum))
	if name != wSim {
		v.setN("goodput_MBps", float64(all.bytes)*n/runS/1e6, all.rounds(), blockSpread(all.durs, sum))
	}
	v.set("allocs_per_round", float64(mallocs)/float64(all.attempted))
	v.set("alloc_KB_per_round", float64(allocBytes)/1024/float64(all.attempted))
	v.set("failed_frac", float64(all.failed)/float64(all.attempted))
	switch name {
	case wSim:
		v.set("sim_s", all.simSeconds)
	case wSurvivor:
		v.setN("recover_p50_us", median(all.recoverDurs)*1e6, len(all.recoverDurs), blockSpread(all.recoverDurs, median))
	}
	tailUS, pct := tail(samples)
	v.setN("icc.round_tail_us", tailUS*1e6, len(samples), 0)
	v.set("icc.round_tail_pct", pct)
	v.set("proc.gc_cycles", float64(gcCycles))
	v.set("proc.gc_pause_ms", float64(gcPauseNs)/1e6)
	v.set("proc.peak_rss_MB", peakRSSMB())
	return all, nil
}

// peakRSSMB is the process's resident-set high-water mark (Linux VmHWM),
// or the Go runtime's total obtained memory where /proc is absent.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / mib
}

// tracedPass runs the traced pass at the given number of rounds and fills
// the per-layer metrics it yields: the generic ones, and the ones only
// this workload supplies. refP50 is the untraced median round time in
// seconds, for the tracing overhead.
func tracedPass(name string, seed int64, rounds int, refP50 float64, v values, t *tally) (traceStats, error) {
	p, err := runPass(name, seed, stopRule{maxRounds: rounds}, true)
	t.add(p)
	if err != nil {
		return traceStats{}, err
	}
	if p.rounds() == 0 {
		return traceStats{}, fmt.Errorf("%s: no traced round completed", name)
	}
	recorded := p.rounds()
	if name == wSim {
		recorded = 1 // only the first traced script pass keeps its spans
	}
	st := analyze(p.recs, p.recs0, recorded)
	st.generic(v)
	if st.uneven && name != wSurvivor {
		return st, fmt.Errorf("%s: transport.msgs_per_round differs between rounds of one pass", name)
	}
	v.set("icc.planner_calls_per_round", float64(p.plannerCalls)/float64(p.rounds()))
	v.set("trace.overhead_ratio", median(p.durs)/refP50)
	switch name {
	case wShort:
		for _, c := range collNames {
			v.setN("icc."+c+"_p50_us", st.p50us(kCall, c), p.rounds(), 0)
		}
	case wPersist:
		v.set("icc.plan_cache_hit_ratio", float64(p.planStats.Hits)/float64(p.planStats.Hits+p.planStats.Misses))
		v.set("icc.persist_start_us", st.kindP50us(kStart))
		v.set("icc.persist_wait_us", st.kindP50us(kWait))
		v.set("icc.init_hit_us", st.p50us(kInit, "inithit"))
		// The pair is in flight from the first issue to the second wait;
		// the yardstick is the same two collectives one after the other
		// through their persistent handles (Start+Wait each).
		v.set("icc.nb_overlap_ratio", st.opP50us("nbpair")/(st.opP50us("allreduce@64KiB")+st.opP50us("bcast@64KiB")))
	case wTCP:
		v.set("tcptransport.reconnects", float64(p.reconnects))
	case wSim:
		v.set("simnet.msgs", float64(p.simMsgs))
		v.set("simnet.wall_us_per_msg", median(p.durs)/float64(p.simMsgs)*1e6)
		v.set("simnet.sim_s.table3", p.simTable3)
		v.set("simnet.sim_s.tree256", p.simTree)
		v.set("model.x_of_model.sim", p.simSeconds/p.simPredicted)
		// An exact count must repeat between the passes of one invocation.
		if prev, ok := v["sim_s"]; ok && prev.Value != p.simSeconds {
			return st, fmt.Errorf("sim_s differs between the untraced (%v) and traced (%v) passes", prev.Value, p.simSeconds)
		}
		v.set("sim_s", p.simSeconds)
		if st.msgs != p.simMsgs {
			return st, fmt.Errorf("%s: the tracing wrapper saw %d messages, simnet delivered %d", name, st.msgs, p.simMsgs)
		}
	case wSurvivor:
		if _, ok := v["recover_p50_us"]; !ok { // the untraced pass's, when there is one
			v.setN("recover_p50_us", median(p.recoverDurs)*1e6, len(p.recoverDurs), 0)
		}
		v.set("recover.detect_us", median(detectTimes(p.recs))*1e6)
		v.setN("recover.agree_us", median(p.agreeDurs)*1e6, len(p.agreeDurs), 0)
		v.set("recover.shrink_us", st.p50us(kRecover, "shrink"))
		v.set("recover.resync_us", st.p50us(kRecover, "resync"))
		v.set("recover.post_shrink_op_us", st.p50us(kRecover, "post_shrink_op"))
		v.set("app.iters", float64(p.iters))
		v.set("app.comm_share", st.collectiveSum/st.roundTime)
		v.set("app.lambda_rel_err", p.lambdaErr)
	}
	return st, writeChromeTrace(filepath.Join(outDir, "trace_"+name+".json"), p.recs)
}

// detectTimes returns, per solve of a traced survivor_power pass, the time
// from the injected fail-stop (the victim's first failed transport
// operation) to rank 0 learning of it (its Shrink beginning). recs holds
// four recorders per solve, rank 0 first.
func detectTimes(recs []*recorder) []float64 {
	var out []float64
	for i := 0; i+ranks <= len(recs); i += ranks {
		died, learned := math.Inf(1), math.NaN()
		for _, r := range recs[i : i+ranks] {
			for _, s := range r.spans {
				if s.kind.transport() && s.failed && s.t1 < died {
					died = s.t1
				}
			}
		}
		for _, s := range recs[i].spans {
			if s.kind == kRecover && s.name == "shrink" {
				learned = s.t0
				break
			}
		}
		if d := learned - died; !math.IsNaN(d) && !math.IsInf(d, 0) {
			out = append(out, math.Max(0, d))
		}
	}
	return out
}

// yardstick is one measured-over-model ratio: a workload's traced
// all-reduce median over the calibrated model's prediction for n bytes on
// that transport.
type yardstick struct {
	metric, workload, span, transport string
	n                                 int
}

var yardsticks = []yardstick{
	{"model.x_of_model.chan_1KiB", wShort, "allreduce", "chan", kib},
	{"model.x_of_model.chan_4MiB", wLong, "allreduce", "chan", 4 * mib},
	{"model.x_of_model.tcp_1KiB", wTCP, "allreduce@1KiB", "tcp", kib},
	{"model.x_of_model.tcp_256KiB", wTCP, "allreduce@256KiB", "tcp", 256 * kib},
}

// report is everything one invocation measured: values per workload, plus
// the "layers" pseudo-workload for the probes.
type report map[string]values

func (r report) of(w string) values {
	if r[w] == nil {
		r[w] = values{}
	}
	return r[w]
}

// ledger runs, for every workload in names, the traced pass at the length
// roundsOf gives, then the probes, and derives the measured-over-model
// ratios. refs gives each workload's untraced median round time.
func ledger(rep report, seed int64, names []string, roundsOf func(name string) int, refs map[string]float64, t *tally) error {
	stats := map[string]traceStats{}
	for _, name := range names {
		rounds := roundsOf(name)
		ref, ok := refs[name]
		if !ok {
			// No untraced pass of this workload in this invocation: a short
			// one supplies the median the tracing overhead is read against.
			p, err := runPass(name, seed, stopRule{maxRounds: rounds}, false)
			t.add(p)
			if err != nil {
				return err
			}
			ref = median(p.durs)
		}
		st, err := tracedPass(name, seed, rounds, ref, rep.of(name), t)
		if err != nil {
			return err
		}
		stats[name] = st
	}
	probes, cals, err := runProbes(seed)
	if err != nil {
		return err
	}
	rep[wLayers] = probes
	for _, y := range yardsticks {
		if st, ok := stats[y.workload]; ok {
			measured := st.p50us(kCall, y.span) / 1e6
			rep.of(y.workload).set(y.metric, measured/cals[y.transport].predictedAllReduce(y.n))
		}
	}
	return nil
}

// rows flattens a report into named rows in registry order, refusing
// values that are not finite.
func (r report) rows() ([]row, error) {
	var out []row
	for _, w := range append(append([]string(nil), workloadNames...), wLayers) {
		for _, m := range allMetrics() {
			x, ok := r[w][m.name]
			if !ok {
				continue
			}
			if math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
				return out, fmt.Errorf("%s/%s is not finite", w, m.name)
			}
			x.Workload, x.Unit = w, m.unit
			out = append(out, x)
		}
	}
	return out, nil
}

// missing lists the metrics a run of all three passes over the named
// workloads should have produced and did not.
func (r report) missing(names []string) []string {
	var out []string
	for _, w := range append(append([]string(nil), names...), wLayers) {
		for _, m := range allMetrics() {
			if _, ok := r[w][m.name]; !ok && m.appliesTo(w) {
				out = append(out, w+"/"+m.name)
			}
		}
	}
	return out
}

func printRows(rows []row) {
	last := ""
	for _, r := range rows {
		if r.Workload != last {
			fmt.Printf("\n== %s ==\n", r.Workload)
			last = r.Workload
		}
		extra := ""
		if r.Samples > 0 {
			extra = fmt.Sprintf("  n=%d", r.Samples)
		}
		if r.Spread > 0 {
			extra += fmt.Sprintf("  spread=%.3f", r.Spread)
		}
		fmt.Printf("%-36s %16.6g %-6s%s\n", r.Metric, r.Value, r.Unit, extra)
	}
}

// run is one invocation's record in a results file.
type run struct {
	Seed       int64  `json:"seed"`
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Note       string `json:"note"`
	When       string `json:"when"`
	Rows       []row  `json:"rows"`
}

type resultsFile struct {
	// Claim is the end-to-end metric and workload the runs were recorded to
	// claim a gain on, written in by the issue that makes the claim; null
	// in a file that claims none, as bench/baseline.json.
	Claim *string `json:"claim"`
	Runs  []run   `json:"runs"`
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// appendResults adds this run to the results file, creating it if absent.
func appendResults(path string, seed int64, rows []row) error {
	f, err := readResults(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	f.Runs = append(f.Runs, run{
		Seed: seed, Go: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Note: "ranks are goroutines in one process; tcp is loopback",
		When: time.Now().UTC().Format(time.RFC3339), Rows: rows,
	})
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// driverLine prints the driver's result object as the last line of
// standard output: the named metrics of one workload.
func driverLine(rep report, workload string, names []string, t tally) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	reg := registry()
	for _, name := range names {
		m := reg[name]
		owner := workload
		if len(m.on) == 1 {
			owner = m.on[0]
		}
		x, ok := rep[owner][name]
		if !ok || math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
			return fmt.Errorf("metric %s (from %s) was not produced", name, owner)
		}
		metrics[name] = mv{x.Value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{t.failed == 0, t.attempted, t.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func driverPerLayer() []string {
	var names []string
	for _, m := range perLayer {
		names = append(names, m.name)
	}
	return append(names, driverExtraLayer...)
}

// options are one invocation's measurement settings.
type options struct {
	workload string  // workload names separated by commas, or "all"
	seed     int64   // drives ragged counts, root rotation, payload values, the fault schedule
	seconds  float64 // > 0: time-bounded untraced pass instead of fixed rounds
	trace    string  // "0": untraced only; "1": traced pass, probes and the other workloads' short traced passes; "": untraced, traced, probes
	layers   bool    // only the probes
	// The smoke tests shorten a run through these two; no flag sets them.
	rounds int // > 0: every pass runs this many rounds
	setups int // > 0: set-up is repeated this often
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "all, or some of "+strings.Join(workloadNames, ","))
	flag.Int64Var(&o.seed, "seed", 1, "drives ragged counts, root rotation, payload values and the fault schedule")
	flag.Float64Var(&o.seconds, "seconds", 0, "measure each workload for this long instead of its fixed rounds")
	flag.StringVar(&o.trace, "trace", "", "0: the untraced end-to-end pass only; 1: the traced pass and the layer probes only; unset: both")
	flag.BoolVar(&o.layers, "layers", false, "run only the isolated layer probes")
	jsonOut := flag.String("json", "", "append this run's rows to a results file")
	compare := flag.Bool("compare", false, "compare two results files: -compare A.json B.json")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as the metric registry defines it")
	flag.Parse()
	if err := realMain(o, *jsonOut, *compare, *spec, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(o options, jsonOut string, compare, spec bool, args []string) error {
	if spec {
		b, err := specJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(args[0], args[1])
	}
	fmt.Printf("bench: seed %d, %s, %d CPUs, GOMAXPROCS %d; %d ranks as goroutines in one process; tcp is loopback\n",
		o.seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), ranks)
	rep, t, names, err := measure(o)
	rows, rerr := rep.rows()
	printRows(rows)
	if err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	if jsonOut != "" {
		if err := appendResults(jsonOut, o.seed, rows); err != nil {
			return err
		}
	}
	if t.failed > 0 {
		fmt.Printf("\nFAILED: %d of %d rounds\n", t.failed, t.attempted)
	}
	if len(names) == 1 && o.trace != "" {
		list := driverEndToEnd
		if o.trace == "1" {
			list = driverPerLayer()
		}
		return driverLine(rep, names[0], list, t)
	}
	if t.failed > 0 {
		return fmt.Errorf("%d of %d rounds failed", t.failed, t.attempted)
	}
	return nil
}

// measure runs the passes the options ask for and returns what they
// produced, the rounds attempted and failed, and the workloads named.
func measure(o options) (report, tally, []string, error) {
	rep := report{}
	var t tally
	names := workloadNames
	if o.workload != "all" {
		names = strings.Split(o.workload, ",")
		for _, name := range names {
			if liveByName(name) == nil && name != wSim && name != wSurvivor {
				return rep, t, nil, fmt.Errorf("unknown workload %q", name)
			}
		}
	}
	if o.trace != "" && o.trace != "0" && o.trace != "1" {
		return rep, t, names, fmt.Errorf("-trace takes 0 or 1")
	}
	if o.layers {
		probes, _, err := runProbes(o.seed)
		rep[wLayers] = probes
		return rep, t, names, err
	}
	stopFor := func(name string) stopRule {
		switch {
		case o.seconds > 0:
			return stopRule{budget: time.Duration(o.seconds * float64(time.Second))}
		case o.rounds > 0:
			return stopRule{maxRounds: o.rounds}
		}
		return stopRule{maxRounds: fixedRounds(name)}
	}
	setups := func(name string) int {
		if o.setups > 0 {
			return o.setups
		}
		return setupsOf(name)
	}
	tenth := func(name string) int { return o.tracedRounds(name, traceFraction) }
	refs := map[string]float64{}
	if o.trace != "1" {
		for _, name := range names {
			p, err := untraced(name, o.seed, stopFor(name), setups(name), rep.of(name), &t)
			if err != nil {
				return rep, t, names, err
			}
			refs[name] = median(p.durs)
		}
	}
	switch {
	case o.trace == "0":
	case o.trace == "1" && len(names) == 1:
		// The driver's traced form: this workload's ledger at a tenth of its
		// rounds against an untraced pass of the same length, a short traced
		// pass of every other workload for the per-layer metrics only it
		// supplies, and the probes.
		own := names[0]
		p, err := untraced(own, o.seed, stopRule{maxRounds: tenth(own)}, 1, rep.of(own), &t)
		if err != nil {
			return rep, t, names, err
		}
		refs[own] = median(p.durs)
		err = ledger(rep, o.seed, workloadNames, func(name string) int {
			if name == own {
				return tenth(name)
			}
			return o.tracedRounds(name, ownerFraction)
		}, refs, &t)
		if err != nil {
			return rep, t, names, err
		}
	default:
		if err := ledger(rep, o.seed, names, tenth, refs, &t); err != nil {
			return rep, t, names, err
		}
		if o.trace == "" {
			if m := rep.missing(names); m != nil {
				return rep, t, names, fmt.Errorf("metrics not produced: %s", strings.Join(m, ", "))
			}
		}
	}
	return rep, t, names, nil
}
