package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/simnet"
)

// Ablation for §8: "Other algorithms". The pipelined broadcast is
// asymptotically twice as fast as scatter/collect for long vectors, but
// every block hop sits on its critical path, so operating-system timing
// irregularities compound. The paper reports that on real machines the
// simpler algorithm wins; we reproduce that by injecting per-message
// latency noise into the simulator and watching the ranking flip.

// AblatePipelined compares the scatter/collect broadcast against the
// pipelined broadcast on a p-node linear array for one vector length,
// across increasing OS-noise amplitudes (expressed as multiples of α).
func AblatePipelined(p, nBytes int, noiseAlphas []float64) (Table, error) {
	m := model.ParagonLike()
	layout := group.Linear(p)
	sc := model.BucketShape(layout)
	blocks := core.OptimalBlocks(m, p, nBytes)
	t := Table{
		Title: fmt.Sprintf("§8 ablation: broadcast of %s on a %d-node array — pipelined [15] vs scatter/collect, under OS timing noise",
			bytesLabel(nBytes), p),
		Header: []string{"noise (×α)", "scatter/collect (s)", fmt.Sprintf("pipelined K=%d (s)", blocks), "winner"},
		Notes: []string{
			"noise: uniform extra latency in [0, amp) per message (§8's \"timing irregularities\")",
			"the pipelined algorithm is asymptotically 2× better but degrades with every noisy hop",
		},
	}
	for _, na := range noiseAlphas {
		cfg := simnet.Config{
			Rows: 1, Cols: p, Machine: m,
			NoiseAmp: na * m.Alpha, NoiseSeed: 1994,
		}
		scRes, err := simnet.Run(cfg, func(ep *simnet.Endpoint) error {
			c := iccCtx(ep)
			return c.Run(core.Buffers{})(core.BuildBcast(c, sc, 0, nBytes, 1))
		})
		if err != nil {
			return t, err
		}
		plRes, err := simnet.Run(cfg, func(ep *simnet.Endpoint) error {
			c := iccCtx(ep)
			return c.Run(core.Buffers{})(core.BuildPipelinedBcast(c, 0, nBytes, 1, blocks))
		})
		if err != nil {
			return t, err
		}
		winner := "pipelined"
		if scRes.Time <= plRes.Time {
			winner = "scatter/collect"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", na), secs(scRes.Time), secs(plRes.Time), winner,
		})
	}
	return t, nil
}
