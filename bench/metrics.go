package main

import (
	"math"
	"sort"
)

// The six workloads, in run order. "layers" is the pseudo-workload that
// owns the isolated probes.
const (
	wShort    = "short_blocking"
	wLong     = "long_blocking"
	wPersist  = "persist_replay"
	wTCP      = "tcp_mixed"
	wSim      = "sim_scale"
	wSurvivor = "survivor_power"
	wLayers   = "layers"
)

var workloadNames = []string{wShort, wLong, wPersist, wTCP, wSim, wSurvivor}

// collNames are the 13 collectives of short_blocking, in call order; each
// is a span name and the suffix of an icc.<coll>_p50_us metric.
var collNames = []string{
	"bcast", "reduce", "allreduce", "scatter", "scatterv", "gather", "gatherv",
	"collect", "collectv", "reducescatter", "alltoall", "alltoallv", "barrier",
}

// metric describes one reported number. End-to-end metrics have no layer
// and carry the bound a later change may worsen them by; per-layer metrics
// name their module. Which end-to-end metric each per-layer metric should
// move, on which workload, is the table in README.md.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening as a share of the base
	layer  string  // "" for end-to-end
	// on lists the workloads that report the metric; nil means every one.
	// Per-layer metrics with a single entry are computed from that
	// workload's passes (or from the probes, for "layers") whatever workload
	// a driver run names, so the driver sees the whole ledger every time.
	on    []string
	exact bool // a deterministic count: must repeat exactly between passes and runs
	// faultFree narrows exact to the workloads without an injected fault:
	// on survivor_power the count depends on where the asynchronous abort
	// lands among the survivors' operations.
	faultFree bool
}

func (m metric) appliesTo(w string) bool {
	if m.on == nil {
		return w != wLayers
	}
	for _, x := range m.on {
		if x == w {
			return true
		}
	}
	return false
}

// exactOn reports whether the metric must repeat exactly on workload w.
func (m metric) exactOn(w string) bool { return m.exact && !(m.faultFree && w == wSurvivor) }

func all(except ...string) []string {
	var out []string
	for _, w := range workloadNames {
		skip := false
		for _, e := range except {
			skip = skip || e == w
		}
		if !skip {
			out = append(out, w)
		}
	}
	return out
}

// endToEnd is what a user of the library sees. The first five apply to
// every workload and are the ones BENCHMARK.json bounds for the driver;
// the rest apply to some workloads only and are checked by -compare.
//
// The two round times the driver gates carry 0.25, not the 0.10 of the
// other timings: across ten runs on ten seeds their interquartile spread
// measured 2-7 % of the median on a shared two-core machine (whole-run
// drifts, not within-run noise), and a driver run has no way to answer
// "unresolved". -compare has, so run_s, goodput_MBps and recover_p50_us
// keep 0.10. Allocation counts repeat to 0.2 %.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "round_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "round_mean_us", unit: "us", better: "lower", bound: 0.25},
	{name: "allocs_per_round", unit: "count", better: "lower", bound: 0.02},
	{name: "alloc_KB_per_round", unit: "KB", better: "lower", bound: 0.02},
	{name: "run_s", unit: "s", better: "lower", bound: 0.10},
	{name: "goodput_MBps", unit: "MB/s", better: "higher", bound: 0.10, on: all(wSim)},
	{name: "failed_frac", unit: "ratio", better: "lower", bound: 0, exact: true},
	{name: "sim_s", unit: "s", better: "lower", bound: 1e-9, on: []string{wSim}, exact: true},
	{name: "recover_p50_us", unit: "us", better: "lower", bound: 0.10, on: []string{wSurvivor}},
}

// driverEndToEnd are the end-to-end metrics every workload reports and
// none reports as zero: the `end_to_end` list of BENCHMARK.json.
var driverEndToEnd = []string{"setup_s", "round_p50_us", "round_mean_us", "allocs_per_round", "alloc_KB_per_round"}

// driverExtraLayer are end-to-end metrics of one workload each. The
// driver's end_to_end list can only hold metrics every workload reports,
// so BENCHMARK.json carries these two in per_layer instead.
var driverExtraLayer = []string{"sim_s", "recover_p50_us"}

func one(w string) []string { return []string{w} }

// scope is a per-layer metric's `on`: one workload, or every one for "".
func scope(w string) []string {
	if w == "" {
		return nil
	}
	return one(w)
}

func perLayerMetrics() []metric {
	us := func(layer, name, on string) metric {
		return metric{name: name, unit: "us", better: "lower", layer: layer, on: scope(on)}
	}
	count := func(layer, name, on string) metric {
		return metric{name: name, unit: "count", better: "lower", layer: layer, on: scope(on), exact: true}
	}
	ratio := func(layer, name, better, on string) metric {
		return metric{name: name, unit: "ratio", better: better, layer: layer, on: scope(on)}
	}
	rate := func(layer, name, unit string) metric {
		return metric{name: name, unit: unit, better: "higher", layer: layer, on: one(wLayers)}
	}
	ms := []metric{
		us("icc", "icc.call_self_us", ""),
		ratio("icc", "icc.self_share", "lower", ""),
		us("icc", "icc.round_tail_us", ""),
		{name: "icc.round_tail_pct", unit: "%", better: "higher", layer: "icc"},
		count("icc", "icc.planner_calls_per_round", ""),
		ratio("icc", "icc.plan_cache_hit_ratio", "higher", wPersist),
		us("icc", "icc.persist_start_us", wPersist),
		us("icc", "icc.persist_wait_us", wPersist),
		us("icc", "icc.init_hit_us", wPersist),
		ratio("icc", "icc.nb_overlap_ratio", "lower", wPersist),
		us("icc", "icc.sub_us", wLayers),
	}
	for _, c := range collNames {
		ms = append(ms, us("icc", "icc."+c+"_p50_us", wShort))
	}
	ms = append(ms,
		metric{name: "transport.msgs_per_round", unit: "count", better: "lower", layer: "transport", exact: true, faultFree: true},
		metric{name: "transport.bytes_per_round", unit: "B", better: "lower", layer: "transport", exact: true, faultFree: true},
		us("transport", "transport.send_us_per_round", ""),
		us("transport", "transport.recv_wait_us_per_round", ""),
		us("transport", "transport.sendrecv_us_per_round", ""),
		ratio("transport", "transport.wait_share", "lower", ""),
		metric{name: "transport.errors", unit: "count", better: "lower", layer: "transport", exact: true, faultFree: true},
		us("model", "model.best_us.p4", wLayers),
		us("model", "model.best_us.p512", wLayers),
		us("model", "model.explain_us.p512", wLayers),
		count("model", "model.shapes.p512", wLayers),
		us("model", "model.hier_cost_us", wLayers),
		us("model", "model.fit_us", wLayers),
	)
	for _, t := range []string{"chan", "tcp"} {
		ms = append(ms,
			us("model", "model.alpha_us."+t, wLayers),
			rate("model", "model.MBps."+t, "MB/s"),
			ratio("model", "model.fit_r2."+t, "higher", wLayers),
		)
	}
	ms = append(ms,
		ratio("model", "model.x_of_model.chan_1KiB", "lower", wShort),
		ratio("model", "model.x_of_model.chan_4MiB", "lower", wLong),
		ratio("model", "model.x_of_model.tcp_1KiB", "lower", wTCP),
		ratio("model", "model.x_of_model.tcp_256KiB", "lower", wTCP),
		metric{name: "model.x_of_model.sim", unit: "ratio", better: "lower", layer: "model", on: one(wSim), exact: true},
		us("core", "core.build_us.p4_1KiB", wLayers),
		us("core", "core.build_us.p256_1MiB", wLayers),
		count("core", "core.plan_steps.allreduce_p4", wLayers),
		us("core", "core.execute_null_us.1KiB", wLayers),
		us("core", "core.execute_null_us.4MiB", wLayers),
		count("core", "core.execute_null_allocs", wLayers),
	)
	for _, k := range []string{"f64_sum", "u8_sum", "i32_max", "f32_prod"} {
		ms = append(ms, rate("datatype", "datatype.apply_GBps."+k, "GB/s"))
	}
	ms = append(ms,
		metric{name: "datatype.apply_ns.f64_sum_1KiB", unit: "ns", better: "lower", layer: "datatype", on: one(wLayers)},
		rate("datatype", "datatype.copy_GBps", "GB/s"),
		ratio("datatype", "datatype.apply_over_copy.f64_sum", "lower", wLayers),
	)
	for _, t := range []string{"chantransport", "tcptransport"} {
		ms = append(ms,
			us(t, t+".pingpong_us", wLayers),
			rate(t, t+".stream_MBps", "MB/s"),
			us(t, t+".sendrecv_us", wLayers),
			metric{name: t + ".sendrecv_allocs", unit: "count", better: "lower", layer: t, on: one(wLayers)},
			metric{name: t + ".recv_allocs", unit: "count", better: "lower", layer: t, on: one(wLayers)},
		)
	}
	ms = append(ms,
		us("chantransport", "chantransport.world_setup_us", wLayers),
		metric{name: "tcptransport.mesh_setup_ms", unit: "ms", better: "lower", layer: "tcptransport", on: one(wLayers)},
		count("tcptransport", "tcptransport.reconnects", wTCP),
		count("simnet", "simnet.msgs", wSim),
		us("simnet", "simnet.wall_us_per_msg", wSim),
		metric{name: "simnet.sim_s.table3", unit: "s", better: "lower", layer: "simnet", on: one(wSim), exact: true},
		metric{name: "simnet.sim_s.tree256", unit: "s", better: "lower", layer: "simnet", on: one(wSim), exact: true},
		metric{name: "harness.nx_over_icc_geomean", unit: "ratio", better: "higher", layer: "harness", on: one(wLayers), exact: true},
		us("group", "group.topology_us", wLayers),
		ratio("faultnet", "faultnet.disarmed_overhead_ratio", "lower", wLayers),
		us("recover", "recover.detect_us", wSurvivor),
		us("recover", "recover.agree_us", wSurvivor),
		us("recover", "recover.shrink_us", wSurvivor),
		us("recover", "recover.resync_us", wSurvivor),
		us("recover", "recover.post_shrink_op_us", wSurvivor),
		count("app", "app.iters", wSurvivor),
		ratio("app", "app.comm_share", "lower", wSurvivor),
		metric{name: "app.lambda_rel_err", unit: "ratio", better: "lower", layer: "app", on: one(wSurvivor), exact: true},
		metric{name: "proc.peak_rss_MB", unit: "MB", better: "lower", layer: "proc"},
		metric{name: "proc.gc_cycles", unit: "count", better: "lower", layer: "proc"},
		metric{name: "proc.gc_pause_ms", unit: "ms", better: "lower", layer: "proc"},
		ratio("trace", "trace.overhead_ratio", "lower", ""),
	)
	return ms
}

var perLayer = perLayerMetrics()

// allMetrics is the whole registry, end-to-end metrics first.
func allMetrics() []metric {
	return append(append([]metric(nil), endToEnd...), perLayer...)
}

// registry indexes allMetrics by name.
func registry() map[string]metric {
	reg := map[string]metric{}
	for _, m := range allMetrics() {
		reg[m.name] = m
	}
	return reg
}

// row is one reported value.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	// Samples is how many measurements the value summarizes (rounds for a
	// median round time), 0 for a plain count.
	Samples int `json:"samples,omitempty"`
	// Spread is the run's own estimate of the value's noise: the
	// interquartile range over consecutive blocks of rounds, as a share of
	// their median. 0 when the metric has no such estimate.
	Spread float64 `json:"spread,omitempty"`
}

// values collects rows keyed by metric name for one workload.
type values map[string]row

func (v values) set(name string, x float64) { v[name] = row{Metric: name, Value: x} }

func (v values) setN(name string, x float64, samples int, spread float64) {
	v[name] = row{Metric: name, Value: x, Samples: samples, Spread: spread}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation;
// xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// rotations averages xs over consecutive groups of n (a trailing partial
// group is dropped): one sample per full rotation of the root, per round.
func rotations(xs []float64, n int) []float64 {
	out := make([]float64, 0, len(xs)/n)
	for i := 0; i+n <= len(xs); i += n {
		out = append(out, sum(xs[i:i+n])/float64(n))
	}
	if len(out) == 0 {
		return xs // fewer rounds than one rotation (smoke tests)
	}
	return out
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, with that percentile (100 and the maximum when there
// are too few samples for any).
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 100
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= 20 {
		return s[n-1], 100
	}
	idx := n - 11 // ten samples lie beyond s[idx]
	return s[idx], 100 * float64(idx+1) / float64(n)
}

// blockSpread estimates a statistic's noise inside one run: it splits xs
// into five consecutive blocks, applies stat to each, and returns the
// interquartile range of the five as a share of their median.
func blockSpread(xs []float64, stat func([]float64) float64) float64 {
	const blocks = 5
	if len(xs) < 4*blocks {
		return 0
	}
	per := make([]float64, blocks)
	for b := range per {
		per[b] = stat(xs[b*len(xs)/blocks : (b+1)*len(xs)/blocks])
	}
	return iqrShare(per)
}

func iqrShare(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 4 || m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}
