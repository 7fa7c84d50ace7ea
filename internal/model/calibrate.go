package model

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/transport"
)

// Calibration: the paper's whole planning story (§7.1, §11) rests on "an
// accurate model for their expense" — retuning iCC for a new machine means
// entering a handful of measured constants. This file supplies the
// measurement side: a probe protocol (ping-pong and eager sweeps over a
// live transport.Endpoint), a least-squares fit turning probe samples into
// a Machine with confidence bounds, and a round-trippable JSON Profile so
// a fitted machine can be saved, inspected and fed back into NewPlanner on
// a later run.

// Sample is one probe measurement: the observed one-way time of an n-byte
// message between two fixed endpoints.
type Sample struct {
	Bytes   int     `json:"bytes"`
	Seconds float64 `json:"seconds"`
}

// FitBounds carries the confidence information of a least-squares α/β fit:
// standard errors of the two coefficients, the coefficient of
// determination, and the sample range the fit saw. A profile whose stderr
// rivals the constant itself was fitted on noise and should not be trusted.
type FitBounds struct {
	AlphaStderr float64 `json:"alpha_stderr"`
	BetaStderr  float64 `json:"beta_stderr"`
	R2          float64 `json:"r2"`
	Samples     int     `json:"samples"`
	MinBytes    int     `json:"min_bytes"`
	MaxBytes    int     `json:"max_bytes"`
	// EagerBeta is the per-byte time observed by the eager (burst) sweep,
	// zero when the sweep did not run. On transports that pipeline
	// back-to-back messages it reflects achievable streaming bandwidth,
	// which is what the bucket algorithms actually see.
	EagerBeta float64 `json:"eager_beta,omitempty"`
}

// FitAlphaBeta fits t = α + nβ to probe samples by ordinary least squares
// and returns the coefficients with their standard errors. Degenerate
// inputs — fewer than two samples, a single distinct size, non-finite
// times, or a non-positive fitted β — return an error instead of a NaN
// machine.
func FitAlphaBeta(samples []Sample) (alpha, beta float64, bounds FitBounds, err error) {
	m := len(samples)
	if m < 2 {
		return 0, 0, bounds, fmt.Errorf("model: α/β fit needs at least 2 samples, got %d", m)
	}
	var sx, sy float64
	minB, maxB := samples[0].Bytes, samples[0].Bytes
	for _, s := range samples {
		if s.Bytes < 0 || math.IsNaN(s.Seconds) || math.IsInf(s.Seconds, 0) || s.Seconds < 0 {
			return 0, 0, bounds, fmt.Errorf("model: degenerate probe sample {%d bytes, %g s}", s.Bytes, s.Seconds)
		}
		sx += float64(s.Bytes)
		sy += s.Seconds
		if s.Bytes < minB {
			minB = s.Bytes
		}
		if s.Bytes > maxB {
			maxB = s.Bytes
		}
	}
	xbar, ybar := sx/float64(m), sy/float64(m)
	var sxx, sxy, syy float64
	for _, s := range samples {
		dx := float64(s.Bytes) - xbar
		dy := s.Seconds - ybar
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, bounds, fmt.Errorf("model: α/β fit needs at least 2 distinct message sizes (all %d samples are %d bytes)", m, samples[0].Bytes)
	}
	beta = sxy / sxx
	alpha = ybar - beta*xbar
	if beta <= 0 || math.IsNaN(beta) || math.IsInf(beta, 0) {
		return 0, 0, bounds, fmt.Errorf("model: fitted β = %g s/byte is not physical (time did not grow with size over %d..%d bytes)", beta, minB, maxB)
	}
	if alpha < 0 {
		// Measurement noise can pull the intercept slightly negative;
		// clamp rather than reject, the slope is still meaningful.
		alpha = 0
	}
	// Residual variance and coefficient standard errors (m-2 degrees of
	// freedom; exactly-determined fits report zero error).
	var rss float64
	for _, s := range samples {
		r := s.Seconds - (alpha + beta*float64(s.Bytes))
		rss += r * r
	}
	bounds = FitBounds{Samples: m, MinBytes: minB, MaxBytes: maxB, R2: 1}
	if syy > 0 {
		bounds.R2 = 1 - rss/syy
	}
	if m > 2 {
		s2 := rss / float64(m-2)
		bounds.BetaStderr = math.Sqrt(s2 / sxx)
		bounds.AlphaStderr = math.Sqrt(s2 * (1/float64(m) + xbar*xbar/sxx))
	}
	return alpha, beta, bounds, nil
}

// ProbeConfig parameterizes the probe protocol. The zero value is filled
// with usable defaults by WithDefaults.
type ProbeConfig struct {
	// Sizes are the message lengths of the ping-pong sweep; at least two
	// distinct sizes are required for a fit.
	Sizes []int
	// Reps is the number of timed rounds per size; the minimum is kept
	// (the minimum filters scheduling noise and is the standard estimator
	// for latency constants).
	Reps int
	// Warmup rounds run before timing starts at each size.
	Warmup int
	// Burst is the eager-sweep length: that many back-to-back sends of the
	// largest size followed by one ack, measuring streaming bandwidth.
	// Zero disables the sweep.
	Burst int
	// Tag labels every probe message. The probe pair exchanges messages
	// only with each other, so any agreed tag works.
	Tag transport.Tag
}

// WithDefaults fills unset fields with the standard probe plan.
func (pc ProbeConfig) WithDefaults() ProbeConfig {
	if len(pc.Sizes) == 0 {
		pc.Sizes = []int{64, 1024, 8192, 65536, 262144}
	}
	if pc.Reps <= 0 {
		pc.Reps = 7
	}
	if pc.Warmup < 0 {
		pc.Warmup = 0
	} else if pc.Warmup == 0 {
		pc.Warmup = 2
	}
	if pc.Burst < 0 {
		pc.Burst = 0
	}
	return pc
}

// Validate reports whether the config can produce a non-degenerate fit,
// without touching the network — every rank of a collective calibration
// checks it identically before any message moves.
func (pc ProbeConfig) Validate() error {
	distinct := map[int]bool{}
	for _, s := range pc.Sizes {
		if s < 1 {
			return fmt.Errorf("model: probe size %d < 1", s)
		}
		distinct[s] = true
	}
	if len(distinct) < 2 {
		return fmt.Errorf("model: probe plan has %d distinct sizes, need at least 2 for an α/β fit", len(distinct))
	}
	return nil
}

// TimeSource returns the endpoint's virtual clock when it keeps one
// (simulated transports) and a monotonic wall clock otherwise, as seconds.
func TimeSource(ep transport.Endpoint) func() float64 {
	if c, ok := ep.(transport.Clock); ok {
		return c.Now
	}
	start := time.Now()
	return func() float64 { return time.Since(start).Seconds() }
}

// PingPong runs the two-sided round-trip probe between this endpoint and
// transport rank peer. Both sides must call it with the same config;
// initiator selects the side that times (the other echoes). The initiator
// returns one min-filtered sample per size — half the best round trip,
// the observed α + nβ; the responder returns nil samples.
func PingPong(ep transport.Endpoint, peer int, initiator bool, pc ProbeConfig) ([]Sample, error) {
	pc = pc.WithDefaults()
	if err := pc.Validate(); err != nil {
		return nil, err
	}
	if peer == ep.Rank() {
		return nil, fmt.Errorf("model: cannot probe rank %d against itself", peer)
	}
	now := TimeSource(ep)
	maxSize := 0
	for _, s := range pc.Sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	buf := make([]byte, maxSize)
	var samples []Sample
	for _, size := range pc.Sizes {
		best := math.Inf(1)
		for r := 0; r < pc.Warmup+pc.Reps; r++ {
			if initiator {
				t0 := now()
				if err := ep.Send(peer, pc.Tag, buf[:size]); err != nil {
					return nil, fmt.Errorf("model: probe send (%d bytes): %w", size, err)
				}
				if _, err := ep.Recv(peer, pc.Tag, buf[:size]); err != nil {
					return nil, fmt.Errorf("model: probe recv (%d bytes): %w", size, err)
				}
				if rt := (now() - t0) / 2; r >= pc.Warmup && rt < best {
					best = rt
				}
			} else {
				if _, err := ep.Recv(peer, pc.Tag, buf[:size]); err != nil {
					return nil, fmt.Errorf("model: probe echo recv (%d bytes): %w", size, err)
				}
				if err := ep.Send(peer, pc.Tag, buf[:size]); err != nil {
					return nil, fmt.Errorf("model: probe echo send (%d bytes): %w", size, err)
				}
			}
		}
		if initiator {
			samples = append(samples, Sample{Bytes: size, Seconds: best})
		}
	}
	return samples, nil
}

// EagerSweep measures streaming cost: the initiator sends Burst
// back-to-back messages of the largest configured size and then receives a
// one-byte ack; the responder drains the burst and acks. It returns the
// initiator's best total seconds over Reps rounds (the responder returns
// zero). FitMachine converts the total into a per-byte rate.
func EagerSweep(ep transport.Endpoint, peer int, initiator bool, pc ProbeConfig) (float64, error) {
	pc = pc.WithDefaults()
	if pc.Burst == 0 {
		return 0, nil
	}
	if peer == ep.Rank() {
		return 0, fmt.Errorf("model: cannot probe rank %d against itself", peer)
	}
	size := 0
	for _, s := range pc.Sizes {
		if s > size {
			size = s
		}
	}
	now := TimeSource(ep)
	buf := make([]byte, size)
	ack := make([]byte, 1)
	best := math.Inf(1)
	for r := 0; r < 1+pc.Reps; r++ { // one untimed warmup round
		if initiator {
			t0 := now()
			for i := 0; i < pc.Burst; i++ {
				if err := ep.Send(peer, pc.Tag, buf); err != nil {
					return 0, fmt.Errorf("model: eager send: %w", err)
				}
			}
			if _, err := ep.Recv(peer, pc.Tag, ack); err != nil {
				return 0, fmt.Errorf("model: eager ack recv: %w", err)
			}
			if dt := now() - t0; r >= 1 && dt < best {
				best = dt
			}
		} else {
			for i := 0; i < pc.Burst; i++ {
				if _, err := ep.Recv(peer, pc.Tag, buf); err != nil {
					return 0, fmt.Errorf("model: eager drain: %w", err)
				}
			}
			if err := ep.Send(peer, pc.Tag, ack); err != nil {
				return 0, fmt.Errorf("model: eager ack send: %w", err)
			}
		}
	}
	if !initiator {
		return 0, nil
	}
	return best, nil
}

// FitMachine turns one pair's probe results into wire constants: α and β
// from the ping-pong least-squares fit, refined by the eager sweep when it
// ran. eagerSecs covers burst sends of eagerSize bytes plus a one-byte
// ack; after subtracting the fitted per-message startups, the remainder is
// the streaming per-byte rate — on transports that pipeline, the honest β
// for the bucket algorithms. base supplies the constants a wire probe
// cannot see (γ, LinkExcess, StepOverhead).
func FitMachine(samples []Sample, eagerSecs float64, eagerSize, burst int, base Machine) (Machine, FitBounds, error) {
	alpha, beta, bounds, err := FitAlphaBeta(samples)
	if err != nil {
		return Machine{}, bounds, err
	}
	m := base
	m.Alpha, m.Beta = alpha, beta
	if burst > 0 && eagerSecs > 0 && eagerSize > 0 {
		// eagerSecs ≈ burst(α + nβ) + (α + 1·β): solve for the streaming β.
		eb := (eagerSecs - float64(burst+1)*alpha - beta) / (float64(burst) * float64(eagerSize))
		if eb > 0 && !math.IsNaN(eb) && !math.IsInf(eb, 0) {
			bounds.EagerBeta = eb
			m.Beta = eb
		}
	}
	if m.LinkExcess < 1 {
		m.LinkExcess = 1
	}
	if err := m.Validate(); err != nil {
		return Machine{}, bounds, fmt.Errorf("model: calibration produced an invalid machine: %w", err)
	}
	return m, bounds, nil
}

// ProfileLevel is one hierarchy level of a calibrated profile, coarsest
// first; the machine prices messages that first cross this level's block
// boundary (the last level prices the deepest blocks), mirroring
// Hierarchy.Machines.
type ProfileLevel struct {
	Label   string     `json:"label,omitempty"`
	Machine Machine    `json:"machine"`
	Bounds  *FitBounds `json:"bounds,omitempty"`
}

// Profile is a round-trippable record of a calibration run: the fitted
// flat machine, optional per-level machines for hierarchical transports,
// confidence bounds, and provenance (which transport, when). It is the
// unit cmd/calibrate saves and WithProfile loads.
type Profile struct {
	// Transport labels the probed substrate ("chan", "tcp", "simnet", …).
	Transport string `json:"transport,omitempty"`
	// FittedAt is the RFC 3339 wall time of the calibration run.
	FittedAt string `json:"fitted_at,omitempty"`
	// Note carries free-form provenance (probe plan, host, …).
	Note string `json:"note,omitempty"`
	// Machine is the fitted flat machine — on hierarchical transports, the
	// deepest (intra-block) level.
	Machine Machine    `json:"machine"`
	Bounds  *FitBounds `json:"bounds,omitempty"`
	// Levels holds per-level machines for hierarchical machines, coarsest
	// first, len = depth+1 (the last entry prices the deepest blocks and
	// equals Machine). Empty for flat transports.
	Levels []ProfileLevel `json:"levels,omitempty"`
}

// Validate checks that every machine in the profile is usable.
func (p *Profile) Validate() error {
	if err := p.Machine.Validate(); err != nil {
		return fmt.Errorf("model: profile machine: %w", err)
	}
	for i, lv := range p.Levels {
		if err := lv.Machine.Validate(); err != nil {
			return fmt.Errorf("model: profile level %d: %w", i, err)
		}
	}
	return nil
}

// Provenance describes where the constants came from, in the form
// diagnostics print next to every planning decision.
func (p *Profile) Provenance() string {
	tr := p.Transport
	if tr == "" {
		tr = "unknown transport"
	}
	when := p.FittedAt
	if when == "" {
		when = "unknown date"
	}
	return fmt.Sprintf("calibrated (%s), fitted %s", tr, when)
}

// Hierarchy returns the per-level machines as a planner hierarchy,
// falling back to the single flat machine when no levels were probed.
func (p *Profile) Hierarchy() Hierarchy {
	if len(p.Levels) == 0 {
		return UniformHierarchy(p.Machine)
	}
	ms := make([]Machine, len(p.Levels))
	for i, lv := range p.Levels {
		ms[i] = lv.Machine
	}
	return Hierarchy{Machines: ms}
}

// Save writes the profile as indented JSON.
func (p *Profile) Save(path string) error {
	if err := p.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Errorf("model: marshal profile: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("model: save profile: %w", err)
	}
	return nil
}

// LoadProfile reads and validates a profile written by Save.
func LoadProfile(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("model: load profile: %w", err)
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("model: parse profile %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("model: profile %s: %w", path, err)
	}
	return &p, nil
}
