package model

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestFitAlphaBetaRecoversExactLine(t *testing.T) {
	const alpha, beta = 50e-6, 2e-9
	var samples []Sample
	for _, n := range []int{64, 1024, 8192, 65536, 262144} {
		samples = append(samples, Sample{Bytes: n, Seconds: alpha + float64(n)*beta})
	}
	a, b, bounds, err := FitAlphaBeta(samples)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(a, alpha) > 1e-9 || relErr(b, beta) > 1e-9 {
		t.Fatalf("fit (%g, %g), want (%g, %g)", a, b, alpha, beta)
	}
	if bounds.Samples != 5 || bounds.MinBytes != 64 || bounds.MaxBytes != 262144 {
		t.Fatalf("bounds %+v", bounds)
	}
	if bounds.AlphaStderr > 1e-12 || bounds.BetaStderr > 1e-15 {
		t.Fatalf("exact data should fit with ~zero stderr, got %+v", bounds)
	}
	if bounds.R2 < 0.999999 {
		t.Fatalf("R² = %g on exact data", bounds.R2)
	}
}

func TestFitAlphaBetaNoisyStderr(t *testing.T) {
	// Deterministic ±10% multiplicative "noise" — the stderr must be
	// nonzero and small relative to the coefficients.
	const alpha, beta = 100e-6, 1e-8
	sign := 1.0
	var samples []Sample
	for _, n := range []int{64, 256, 1024, 4096, 16384, 65536, 262144} {
		samples = append(samples, Sample{Bytes: n, Seconds: (alpha + float64(n)*beta) * (1 + 0.1*sign)})
		sign = -sign
	}
	a, b, bounds, err := FitAlphaBeta(samples)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(a, alpha) > 0.5 || relErr(b, beta) > 0.5 {
		t.Fatalf("fit (%g, %g) too far from (%g, %g)", a, b, alpha, beta)
	}
	if bounds.BetaStderr <= 0 || bounds.AlphaStderr <= 0 {
		t.Fatalf("noisy data should have positive stderr, got %+v", bounds)
	}
	if bounds.BetaStderr > b {
		t.Fatalf("β stderr %g exceeds β %g", bounds.BetaStderr, b)
	}
}

func TestFitAlphaBetaDegenerate(t *testing.T) {
	cases := map[string][]Sample{
		"too few":     {{Bytes: 64, Seconds: 1e-4}},
		"one size":    {{Bytes: 64, Seconds: 1e-4}, {Bytes: 64, Seconds: 1.1e-4}},
		"nan":         {{Bytes: 64, Seconds: math.NaN()}, {Bytes: 128, Seconds: 1e-4}},
		"inf":         {{Bytes: 64, Seconds: math.Inf(1)}, {Bytes: 128, Seconds: 1e-4}},
		"negative t":  {{Bytes: 64, Seconds: -1e-4}, {Bytes: 128, Seconds: 1e-4}},
		"flat β":      {{Bytes: 64, Seconds: 1e-4}, {Bytes: 128, Seconds: 1e-4}},
		"shrinking β": {{Bytes: 64, Seconds: 2e-4}, {Bytes: 65536, Seconds: 1e-4}},
	}
	for name, samples := range cases {
		if _, _, _, err := FitAlphaBeta(samples); err == nil {
			t.Errorf("%s: expected an error, got none", name)
		}
	}
}

func TestFitAlphaBetaClampsNegativeIntercept(t *testing.T) {
	// A slightly negative intercept from noise is clamped to zero rather
	// than rejected.
	samples := []Sample{
		{Bytes: 100, Seconds: 0.9e-7},
		{Bytes: 200, Seconds: 2.1e-7},
		{Bytes: 300, Seconds: 3.0e-7},
	}
	a, b, _, err := FitAlphaBeta(samples)
	if err != nil {
		t.Fatal(err)
	}
	if a != 0 {
		t.Fatalf("α = %g, want clamp to 0", a)
	}
	if b <= 0 {
		t.Fatalf("β = %g", b)
	}
}

func TestFitMachineEagerBeta(t *testing.T) {
	const alpha, betaPP = 1e-4, 1e-8
	samples := []Sample{
		{Bytes: 1024, Seconds: alpha + 1024*betaPP},
		{Bytes: 65536, Seconds: alpha + 65536*betaPP},
	}
	// Streaming β half the ping-pong β: eagerSecs covers burst sends of
	// eagerSize plus a 1-byte ack.
	const burst, eagerSize = 8, 65536
	const betaStream = betaPP / 2
	eager := float64(burst+1)*alpha + betaPP + float64(burst)*eagerSize*betaStream
	base := Machine{Gamma: 3e-9, LinkExcess: 2, StepOverhead: 1e-6}
	m, bounds, err := FitMachine(samples, eager, eagerSize, burst, base)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(m.Alpha, alpha) > 1e-6 {
		t.Fatalf("α = %g, want %g", m.Alpha, alpha)
	}
	if relErr(m.Beta, betaStream) > 1e-6 {
		t.Fatalf("β = %g, want streaming %g", m.Beta, betaStream)
	}
	if relErr(bounds.EagerBeta, betaStream) > 1e-6 {
		t.Fatalf("EagerBeta = %g, want %g", bounds.EagerBeta, betaStream)
	}
	if m.Gamma != base.Gamma || m.LinkExcess != base.LinkExcess || m.StepOverhead != base.StepOverhead {
		t.Fatalf("base constants not adopted: %+v", m)
	}
}

func TestFitMachineBaseDefaults(t *testing.T) {
	samples := []Sample{
		{Bytes: 64, Seconds: 1e-4},
		{Bytes: 65536, Seconds: 2e-4},
	}
	m, _, err := FitMachine(samples, 0, 0, 0, Machine{})
	if err != nil {
		t.Fatal(err)
	}
	if m.LinkExcess != 1 {
		t.Fatalf("LinkExcess = %g, want 1", m.LinkExcess)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProfileRoundTripJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prof.json")
	p := &Profile{
		Transport: "tcp",
		FittedAt:  "2026-08-08",
		Note:      "unit test",
		Machine:   Machine{Alpha: 3e-5, Beta: 4e-10, Gamma: 2e-9, LinkExcess: 1.5, StepOverhead: 1e-6},
		Bounds:    &FitBounds{AlphaStderr: 1e-7, BetaStderr: 1e-12, R2: 0.999, Samples: 7, MinBytes: 64, MaxBytes: 262144, EagerBeta: 3e-10},
		Levels: []ProfileLevel{
			{Label: "inter-node", Machine: Machine{Alpha: 1e-4, Beta: 4e-9, LinkExcess: 1}},
			{Machine: Machine{Alpha: 3e-5, Beta: 4e-10, Gamma: 2e-9, LinkExcess: 1.5, StepOverhead: 1e-6}},
		},
	}
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	q, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if q.Transport != p.Transport || q.FittedAt != p.FittedAt || q.Note != p.Note {
		t.Fatalf("metadata mismatch: %+v", q)
	}
	if *q.Bounds != *p.Bounds {
		t.Fatalf("bounds mismatch: %+v vs %+v", *q.Bounds, *p.Bounds)
	}
	if q.Machine != p.Machine {
		t.Fatalf("machine mismatch: %+v vs %+v", q.Machine, p.Machine)
	}
	if len(q.Levels) != 2 || q.Levels[0].Machine != p.Levels[0].Machine || q.Levels[0].Label != "inter-node" {
		t.Fatalf("levels mismatch: %+v", q.Levels)
	}
	h := q.Hierarchy()
	if len(h.Machines) != 2 || h.Machines[0] != p.Levels[0].Machine {
		t.Fatalf("hierarchy view: %+v", h)
	}
	if h.At(0) != p.Levels[0].Machine || h.At(1) != p.Levels[1].Machine {
		t.Fatalf("two-level view: %+v", h)
	}
	if got := q.Provenance(); got != "calibrated (tcp), fitted 2026-08-08" {
		t.Fatalf("provenance %q", got)
	}
}

func TestLoadProfileRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	// β = 0 fails Machine.Validate.
	if err := os.WriteFile(bad, []byte(`{"machine":{"alpha":1e-5,"beta":0,"gamma":0,"link_excess":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProfile(bad); err == nil {
		t.Fatal("invalid profile loaded without error")
	}
	if _, err := LoadProfile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing profile loaded without error")
	}
}

func TestProbeConfigValidate(t *testing.T) {
	if err := (ProbeConfig{Sizes: []int{64, 64}}).Validate(); err == nil {
		t.Fatal("single distinct size accepted")
	}
	if err := (ProbeConfig{Sizes: []int{0, 64}}).Validate(); err == nil {
		t.Fatal("zero size accepted")
	}
	if err := (ProbeConfig{}).WithDefaults().Validate(); err != nil {
		t.Fatal(err)
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
