package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/simnet"
)

// The complete-exchange harness: the short (Bruck relay) and long
// (rotation/pairwise) schedules against the automatically selected one,
// on a p-rank switched machine — a simulated tree whose one block holds
// every rank, where every message pays α + nβ and contends only at the
// per-rank injection and ejection channels. That is exactly the regime
// the analytic model describes, so the simulated crossover must land
// where the model puts it; this is the AllToAll instance of §7.1's
// "accurate model" claim.

// a2aBytes rounds n up to a whole number of equal per-pair blocks — the
// smallest exchange the equal-count complete exchange can realize. Sweeps
// and benches use it for both pricing and execution, so the model and the
// simulator always see the same bytes (n/p truncation would silently run
// a zero-byte exchange whenever n < p).
func a2aBytes(n, p int) int {
	blk := (n + p - 1) / p
	if blk < 1 {
		blk = 1
	}
	return blk * p
}

// runSwitchedAllToAll times one complete exchange of n total bytes per
// rank on a p-rank switched machine under shape s. n must be a multiple
// of p (see a2aBytes).
func runSwitchedAllToAll(p, n int, m model.Machine, s model.Shape) (float64, error) {
	res, err := simnet.Run(simnet.Config{
		Rows: 1, Cols: p, Machine: m,
		Levels: []simnet.Level{{Size: p, Alpha: m.Alpha, Beta: m.Beta}},
	}, func(ep *simnet.Endpoint) error {
		c := core.NewCtx(ep, 1)
		mach := m
		c.Machine = &mach
		return c.Run(core.Buffers{})(core.BuildAllToAll(c, s, n/p, 1))
	})
	if err != nil {
		return 0, err
	}
	return res.Time, nil
}

// AllToAllCrossover produces the envelope table for the complete exchange
// on p switched ranks: short, long and auto simulated times per length,
// the model's pick, and whether the simulator agrees.
func AllToAllCrossover(p int, lengths []int) (Table, error) {
	m := model.ParagonLike()
	pl := model.NewPlanner(m)
	layout := group.Linear(p)
	short, long := model.AllToAllShapes(p)
	t := Table{
		Title:  fmt.Sprintf("complete exchange: Bruck (short) vs pairwise (long) on %d switched ranks, time (s)", p),
		Header: []string{"bytes", "short (Bruck)", "long (pairwise)", "auto", "model pick", "sim agrees"},
		Notes: []string{"switched machine (single simulated cluster): messages pay α+nβ with no link conflicts, " +
			"the regime the analytic crossover describes exactly",
			"rows round the vector up to a whole equal block per pair"},
	}
	for _, n := range lengths {
		nEff := a2aBytes(n, p)
		st, err := runSwitchedAllToAll(p, nEff, m, short)
		if err != nil {
			return t, fmt.Errorf("all-to-all short n=%d: %w", n, err)
		}
		lt, err := runSwitchedAllToAll(p, nEff, m, long)
		if err != nil {
			return t, fmt.Errorf("all-to-all long n=%d: %w", n, err)
		}
		s, _ := pl.Best(model.AllToAll, layout, nEff)
		auto, err := runSwitchedAllToAll(p, nEff, m, s)
		if err != nil {
			return t, fmt.Errorf("all-to-all auto n=%d: %w", n, err)
		}
		pick := "short"
		if s.ShortFrom != 0 {
			pick = "long"
		}
		simPick := "short"
		if lt < st {
			simPick = "long"
		}
		t.Rows = append(t.Rows, []string{
			bytesLabel(nEff), secs(st), secs(lt), secs(auto), pick,
			fmt.Sprint(pick == simPick),
		})
	}
	return t, nil
}
