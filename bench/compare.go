package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// series is one (workload, metric)'s values over the runs of a results
// file, with the widest within-run spread any run recorded.
type series struct {
	values []float64
	within float64
}

func collect(f resultsFile) map[[2]string]*series {
	out := map[[2]string]*series{}
	for _, r := range f.Runs {
		for _, row := range r.Rows {
			k := [2]string{row.Workload, row.Metric}
			if out[k] == nil {
				out[k] = &series{}
			}
			out[k].values = append(out[k].values, row.Value)
			out[k].within = math.Max(out[k].within, row.Spread)
		}
	}
	return out
}

// spread is a file's own noise for one metric: the interquartile range
// over its runs as a share of their median when it holds four or more
// runs, else the within-run estimate the rows carry.
func (s *series) spread() float64 {
	if len(s.values) >= 4 {
		return iqrShare(s.values)
	}
	return s.within
}

func (s *series) min() float64 { return quantile(s.values, 0) }
func (s *series) max() float64 { return quantile(s.values, 1) }

// same reports whether two values of an exact metric are the same number:
// equal to 1e-9 relative, which is sim_s's bound.
func same(x, y float64) bool { return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y)) }

// judge compares one metric's runs in file B against those in A on
// workload w. It returns the two values the verdict rests on, the bound as
// printed, and the verdict: "ok", "BREACH", "UNRESOLVED (...)", "differs"
// for an exact per-layer metric that did not repeat, or "" for a per-layer
// metric that is listed only.
//
// failed_frac is judged by its worst run, not its median: no run of B may
// fail more rounds than A's worst. An exact metric must be one number in
// every run of both files. Any other end-to-end metric is judged by its
// medians, and is unresolved when either file's own spread exceeds the
// bound.
func judge(m metric, w string, a, b *series) (va, vb float64, bound, verdict string) {
	gated := m.layer == ""
	switch {
	case m.name == "failed_frac":
		va, vb = a.max(), b.max()
		bound, verdict = "0", "ok"
		if vb > va {
			verdict = "BREACH"
		}
	case m.exactOn(w):
		va, vb = median(a.values), median(b.values)
		bound, verdict = "exact", "ok"
		if !same(a.min(), a.max()) || !same(b.min(), b.max()) || !same(va, vb) {
			verdict = "differs"
			if gated {
				verdict = "BREACH"
			}
		}
	case gated:
		va, vb = median(a.values), median(b.values)
		// worse is the share of A by which B is worse.
		worse := (vb - va) / math.Abs(va)
		if m.better == "higher" {
			worse = -worse
		}
		bound, verdict = fmt.Sprintf("%.2f", m.bound), "ok"
		if noise := math.Max(a.spread(), b.spread()); noise > m.bound {
			verdict = fmt.Sprintf("UNRESOLVED (spread %.3f)", noise)
		} else if worse > m.bound {
			verdict = "BREACH"
		}
	default:
		va, vb = median(a.values), median(b.values)
	}
	return va, vb, bound, verdict
}

// compareFiles checks results file b against a, metric by metric: one row
// per (workload, metric) with both values and the ratio b/a, judged as
// judge says. An end-to-end metric that a reports and b does not is a
// breach too: a change may not pass by no longer emitting a metric or a
// workload. Per-layer metrics are listed, never gated. It returns an error
// on any breach.
func compareFiles(pathA, pathB string) error {
	fa, err := readResults(pathA)
	if err != nil {
		return err
	}
	fb, err := readResults(pathB)
	if err != nil {
		return err
	}
	a, b := collect(fa), collect(fb)
	reg := registry()
	var keys [][2]string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if a[k] == nil {
			keys = append(keys, k)
		}
	}
	order := map[string]int{wLayers: len(workloadNames)}
	for i, w := range workloadNames {
		order[w] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return order[keys[i][0]] < order[keys[j][0]]
		}
		return keys[i][1] < keys[j][1]
	})
	fmt.Printf("base A = %s (%d runs), B = %s (%d runs); ratio is B/A\n", pathA, len(fa.Runs), pathB, len(fb.Runs))
	if len(fa.Runs) < 4 || len(fb.Runs) < 4 {
		fmt.Println("note: with fewer than 4 runs a side, spread is the within-run estimate and cannot see one whole run drifting against the next")
	}
	const format = "%-15s %-34s %14s %14s %8s %7s  %s\n"
	fmt.Printf(format, "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	num := func(x float64) string { return fmt.Sprintf("%.6g", x) }
	breaches, unresolved := 0, 0
	for _, k := range keys {
		m, ok := reg[k[1]]
		if !ok {
			continue
		}
		switch {
		case a[k] == nil:
			fmt.Printf(format, k[0], k[1], "-", num(median(b[k].values)), "", "", "new in B")
			continue
		case b[k] == nil:
			verdict := "missing from B"
			if m.layer == "" {
				verdict = "BREACH (missing from B)"
				breaches++
			}
			fmt.Printf(format, k[0], k[1], num(median(a[k].values)), "-", "", "", verdict)
			continue
		}
		va, vb, bound, verdict := judge(m, k[0], a[k], b[k])
		ratio := vb / va
		if va == vb {
			ratio = 1 // also 0/0
		}
		switch {
		case verdict == "BREACH":
			breaches++
		case strings.HasPrefix(verdict, "UNRESOLVED"):
			unresolved++
		}
		fmt.Printf(format, k[0], k[1], num(va), num(vb), fmt.Sprintf("%.4f", ratio), bound, verdict)
	}
	fmt.Printf("\n%d end-to-end breaches, %d unresolved\n", breaches, unresolved)
	if breaches > 0 {
		return fmt.Errorf("%d end-to-end metrics breached their bound", breaches)
	}
	return nil
}

// specJSON renders BENCHMARK.json as the registry defines it, so the file
// at the repository root is generated, not hand-kept:
// bench/run.sh -spec > BENCHMARK.json
func specJSON() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadNames {
		spec.Workloads = append(spec.Workloads, workload{w, whys[w]})
	}
	reg := registry()
	for _, name := range driverEndToEnd {
		m := reg[name]
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{m.name, m.unit, m.better})
	}
	for _, name := range driverExtraLayer {
		m := reg[name]
		spec.PerLayer = append(spec.PerLayer, layer{m.name, m.unit, m.better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	err := enc.Encode(spec)
	return buf.Bytes(), err
}

// runSeconds is how long the driver measures one run (BENCHMARK.json's
// run_seconds): 136 runs of six workloads, their set-up and two builds
// must fit the driver's 3420 s. A run takes under a second more than it
// measures (sim_scale 5 s more, its cold script passes), a --trace 1 run
// 14-19 s whatever the figure, so 18 s fills ~2800 s; the rest is margin.
// Longer runs are the one lever on this host's minute-long slow episodes.
const runSeconds = 18

// whys is the one-line rationale of each workload, as BENCHMARK.json
// records it.
var whys = map[string]string{
	wShort:    "chan, all 13 collectives at 1 KiB: alpha-bound, per-call software overhead and chantransport's per-op cost are nearly all the time; copies and kernels are nothing",
	wLong:     "chan, 4 MiB AllReduce/Bcast/ReduceScatter/Collect/AllToAll: beta/gamma-bound, staging copies and combine kernels dominate; per-call overhead is invisible",
	wPersist:  "chan, 8 plan-capable collectives via persistent handles at 1 and 64 KiB, an I* pair, a cached Init: plan replay on the progress goroutine, the other path through icc/core",
	wTCP:      "loopback TCP, 4 collectives at 1 KiB and 256 KiB: framing, syscalls, reader goroutines and ack bookkeeping dominate; chan-only changes must not move it",
	wSim:      "simnet timing-only, Table 3 cells on a 512-node mesh + 5 collectives on a 256-rank 3-level tree: large p; wall time is planner + plan build + simnet engine",
	wSurvivor: "chan under faultnet, power method to 1e-10 with one seeded fail-stop, Shrink, resync, re-block: abort propagation, recovery, world construction, compute skew",
}
