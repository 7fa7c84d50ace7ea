package icc

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/chantransport"
	"repro/internal/datatype"
	"repro/internal/model"
	"repro/internal/simnet"
	"repro/internal/tcptransport"
	"repro/internal/transport"
)

// Measurement-driven calibration (§7.1, §11): instead of planning every
// transport with guessed ParagonLike constants, probe the live endpoint,
// fit α/β by least squares, and feed the fitted machine back into the
// planner. Calibrate is itself a collective — every member calls it, rank
// 0 runs the probes and broadcasts the fitted profile so all ranks plan
// identically afterwards.

// Profile is a round-trippable calibration record (model.Profile): the
// fitted machine(s), confidence bounds, and provenance.
type Profile = model.Profile

// CalibrateOptions parameterizes a calibration run. The zero value uses
// the standard probe plan.
type CalibrateOptions struct {
	// Sizes are the ping-pong message lengths (≥ 2 distinct values).
	Sizes []int
	// Reps timed rounds per size; the minimum is kept.
	Reps int
	// Warmup untimed rounds per size.
	Warmup int
	// Burst is the eager-sweep length measuring streaming bandwidth
	// (0 disables; default 8).
	Burst int
	// Transport labels the profile; inferred from the endpoint type when
	// empty ("chan", "tcp", "simnet").
	Transport string
}

func (o CalibrateOptions) probeConfig(tag transport.Tag) model.ProbeConfig {
	pc := model.ProbeConfig{
		Sizes:  o.Sizes,
		Reps:   o.Reps,
		Warmup: o.Warmup,
		Burst:  o.Burst,
		Tag:    tag,
	}
	if len(pc.Sizes) == 0 && pc.Burst == 0 {
		pc.Burst = 8
	}
	return pc.WithDefaults()
}

// transportLabel names the substrate a communicator runs over.
func transportLabel(ep transport.Endpoint) string {
	switch ep.(type) {
	case *chantransport.Endpoint:
		return "chan"
	case *tcptransport.Endpoint:
		return "tcp"
	case *simnet.Endpoint:
		return "simnet"
	}
	return fmt.Sprintf("%T", ep)
}

// endpointBase returns the transport-declared machine for a hierarchy
// level, when the endpoint declares one. The wire probes recover α and β;
// γ, LinkExcess and StepOverhead are charged by the collective layer from
// the communicator's machine, so on a simulated endpoint the declared
// values are the ground truth a probe cannot reach.
func endpointBase(ep transport.Endpoint, level int) (model.Machine, bool) {
	if hp, ok := ep.(interface{ Hierarchy() model.Hierarchy }); ok {
		return hp.Hierarchy().At(level), true
	}
	if mp, ok := ep.(interface{ Machine() model.Machine }); ok {
		return mp.Machine(), true
	}
	return model.Machine{}, false
}

// measureGamma times the combine loop on this CPU — the γ of a wall-clock
// transport, where the combine really is local arithmetic.
func measureGamma() float64 {
	const n = 1 << 16
	dst := make([]byte, n)
	src := make([]byte, n)
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		if err := datatype.Apply(Float64, Sum, dst, src); err != nil {
			return 0
		}
		if dt := time.Since(t0).Seconds() / n; rep == 0 || dt < best {
			best = dt
		}
	}
	return best
}

// levelPeers picks one probe peer per hierarchy level for logical rank 0,
// from the per-level block assignments (coarsest first). Entry l is the
// logical rank of a peer whose path to rank 0 first crosses a level-l
// boundary (shares every coarser block, differs at level l); the last
// entry is a peer inside rank 0's deepest block. -1 marks a level with no
// such peer (e.g. rank 0 alone in its node). With no assignments the
// result is the single flat pair {1}.
func levelPeers(assigns [][]int, size int) []int {
	if len(assigns) == 0 {
		return []int{1}
	}
	peers := make([]int, len(assigns)+1)
	for l := range peers {
		peers[l] = -1
		for r := 1; r < size; r++ {
			shared := true
			for j := 0; j < l; j++ {
				if assigns[j][0] != assigns[j][r] {
					shared = false
					break
				}
			}
			if !shared {
				continue
			}
			if l < len(assigns) && assigns[l][0] == assigns[l][r] {
				continue
			}
			peers[l] = r
			break
		}
	}
	return peers
}

// Calibrate probes the communicator's transport and returns a fitted
// profile, identical on every rank. It is collective: every member must
// call it with the same options. Logical rank 0 runs a ping-pong sweep
// (and an eager burst) against one peer per hierarchy level — the deepest
// pair on a flat communicator — fits α and β by least squares, adopts the
// constants a wire probe cannot see (γ, LinkExcess, StepOverhead) from
// the endpoint's declared machine or a local CPU measurement, and
// broadcasts the result. The profile feeds back via WithCalibration (or
// Save + WithProfile) so a later communicator plans with measured
// constants instead of the built-in guesses.
//
// The transport must carry payload bytes (the profile travels by
// broadcast); a timing-only simulation cannot be calibrated in place.
func Calibrate(c *Comm, opts CalibrateOptions) (*Profile, error) {
	// Validate identically on every rank before any message moves, so a
	// degenerate probe plan fails collectively instead of deadlocking.
	if c.Size() < 2 {
		return nil, fmt.Errorf("icc: calibration needs at least 2 ranks, have %d", c.Size())
	}
	if !c.carries() {
		return nil, fmt.Errorf("icc: calibration needs a data-carrying transport (the profile travels by broadcast)")
	}
	pc := opts.probeConfig(0)
	if err := pc.Validate(); err != nil {
		return nil, err
	}
	assigns := c.Topology()
	peers := levelPeers(assigns, c.Size())

	prof := &Profile{
		Transport: opts.Transport,
		FittedAt:  time.Now().UTC().Format("2006-01-02"),
	}
	if prof.Transport == "" {
		prof.Transport = transportLabel(c.ep)
	}

	var fitErr error
	if c.me == 0 {
		fitErr = c.runProbes(peers, pc, prof)
	} else {
		for l, p := range peers {
			if p != c.me {
				continue
			}
			lpc := pc
			lpc.Tag = transport.Compose(c.ctxID, 0xCB, uint32(l))
			if _, err := model.PingPong(c.ep, c.members[0], false, lpc); err != nil {
				return nil, err
			}
			if _, err := model.EagerSweep(c.ep, c.members[0], false, lpc); err != nil {
				return nil, err
			}
		}
	}
	return c.shareProfile(prof, fitErr)
}

// runProbes is rank 0's side of Calibrate: probe each level's pair, fit,
// and assemble the profile.
func (c *Comm) runProbes(peers []int, pc model.ProbeConfig, prof *Profile) error {
	var cpuGamma float64
	cpuGammaSet := false
	base := func(level int) model.Machine {
		if m, ok := endpointBase(c.ep, level); ok {
			return m
		}
		// Wall-clock transport: combine arithmetic is real CPU work; the
		// MST recursion overhead is folded into the measured α.
		if !cpuGammaSet {
			cpuGamma, cpuGammaSet = measureGamma(), true
		}
		return model.Machine{Gamma: cpuGamma, LinkExcess: 1, StepOverhead: 0}
	}
	eagerSize := 0
	for _, s := range pc.Sizes {
		if s > eagerSize {
			eagerSize = s
		}
	}
	levels := make([]model.ProfileLevel, len(peers))
	fitted := make([]bool, len(peers))
	for l, peer := range peers {
		if peer < 0 {
			continue
		}
		lpc := pc
		lpc.Tag = transport.Compose(c.ctxID, 0xCB, uint32(l))
		samples, err := model.PingPong(c.ep, c.members[peer], true, lpc)
		if err != nil {
			return err
		}
		eager, err := model.EagerSweep(c.ep, c.members[peer], true, lpc)
		if err != nil {
			return err
		}
		m, bounds, err := model.FitMachine(samples, eager, eagerSize, lpc.Burst, base(l))
		if err != nil {
			return err
		}
		b := bounds
		levels[l] = model.ProfileLevel{Machine: m, Bounds: &b}
		fitted[l] = true
	}
	// Fill unprobed levels from the nearest fitted neighbor (preferring
	// the finer one: a lone rank in a node still talks at node speed).
	anyFit := false
	for _, f := range fitted {
		anyFit = anyFit || f
	}
	if !anyFit {
		return fmt.Errorf("icc: no probe pair found (every hierarchy level degenerate)")
	}
	for l := range levels {
		if fitted[l] {
			continue
		}
		src := -1
		for j := l + 1; j < len(levels); j++ {
			if fitted[j] {
				src = j
				break
			}
		}
		if src < 0 {
			for j := l - 1; j >= 0; j-- {
				if fitted[j] {
					src = j
					break
				}
			}
		}
		levels[l] = levels[src]
		levels[l].Label = fmt.Sprintf("no probe pair at level %d; reusing level %d", l, src)
	}
	prof.Machine = levels[len(levels)-1].Machine
	prof.Bounds = levels[len(levels)-1].Bounds
	if len(peers) > 1 {
		prof.Levels = levels
	}
	return prof.Validate()
}

// shareProfile broadcasts rank 0's fitted profile (or its error) to every
// rank: an 8-byte status+length header, then the JSON payload.
func (c *Comm) shareProfile(prof *Profile, fitErr error) (*Profile, error) {
	var payload []byte
	status := int32(0)
	if c.me == 0 {
		if fitErr != nil {
			status = -1
		} else {
			var err error
			payload, err = json.Marshal(prof)
			if err != nil {
				status = -1
				fitErr = err
			}
		}
	}
	header := make([]byte, 8)
	if c.me == 0 {
		binary.LittleEndian.PutUint32(header[0:], uint32(status))
		binary.LittleEndian.PutUint32(header[4:], uint32(len(payload)))
	}
	if err := c.Bcast(header, 8, Uint8, 0); err != nil {
		return nil, err
	}
	status = int32(binary.LittleEndian.Uint32(header[0:]))
	length := int(binary.LittleEndian.Uint32(header[4:]))
	if status < 0 {
		if fitErr != nil {
			return nil, fitErr
		}
		return nil, fmt.Errorf("icc: calibration failed on rank 0")
	}
	if c.me != 0 {
		payload = make([]byte, length)
	}
	if err := c.Bcast(payload, length, Uint8, 0); err != nil {
		return nil, err
	}
	if c.me != 0 {
		prof = &Profile{}
		if err := json.Unmarshal(payload, prof); err != nil {
			return nil, fmt.Errorf("icc: decode calibration profile: %w", err)
		}
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	return prof, nil
}

// WithCalibration plans with a fitted profile instead of the built-in
// guesses: the profile's machine replaces the default (and any
// transport-declared) constants, per-level machines feed the hierarchical
// planner when present, and provenance flows through to Explain.
func WithCalibration(p *Profile) Option {
	return func(c *Comm) {
		if p == nil {
			c.optErr = fmt.Errorf("icc: WithCalibration(nil)")
			return
		}
		if err := p.Validate(); err != nil {
			c.optErr = err
			return
		}
		applyProfile(c, p, p.Provenance())
	}
}

// WithProfile loads a profile saved by (*Profile).Save (cmd/calibrate)
// and applies it as WithCalibration would. A missing or invalid file is
// reported by New.
func WithProfile(path string) Option {
	return func(c *Comm) {
		p, err := model.LoadProfile(path)
		if err != nil {
			c.optErr = err
			return
		}
		applyProfile(c, p, fmt.Sprintf("profile %s: %s", path, p.Provenance()))
	}
}

func applyProfile(c *Comm, p *Profile, prov string) {
	c.mach, c.hasMach, c.machProv = p.Machine, true, prov
	if len(p.Levels) > 0 {
		c.hier, c.hasHier = p.Hierarchy(), true
	}
}
