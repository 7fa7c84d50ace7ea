package harness

import (
	"fmt"
	"time"

	"repro/internal/chantransport"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/trace"
)

// Fig1 reproduces the paper's Fig. 1: the step-by-step data movement of a
// broadcast hybrid on a 12-node linear array viewed as a 2×2×3 logical
// mesh with strategy SSMCC — scatters within pairs (steps 1–2), MST
// broadcasts within triples (steps 3–4), simultaneous collects within
// pairs (steps 5–6). The vector is four marker elements x0…x3; the
// rendering shows which pieces every node holds after each phase.
func Fig1() (string, error) {
	const p = 12
	const n = 4
	shape := model.Shape{Dims: []model.Dim{
		{Size: 2, Stride: 1, Conflict: 1},
		{Size: 2, Stride: 2, Conflict: 2},
		{Size: 3, Stride: 4, Conflict: 4},
	}, ShortFrom: 2}
	rec := &trace.Recorder{}
	w, err := chantransport.NewWorld(p, chantransport.WithRecvTimeout(time.Minute))
	if err != nil {
		return "", err
	}
	err = w.Run(func(ep *chantransport.Endpoint) error {
		c := core.Ctx{
			EP:      rec.Wrap(ep),
			Members: identity(p),
			Me:      ep.Rank(),
			Coll:    1,
		}
		buf := make([]byte, n)
		if ep.Rank() == 0 {
			for i := range buf {
				buf[i] = byte(i) // marker elements
			}
		}
		return c.Run(core.Buffers{Buf: buf})(core.BuildBcast(c, shape, 0, n, 1))
	})
	if err != nil {
		return "", err
	}
	_, holdings := trace.BroadcastHoldings(rec.Events(), p, n, 0)
	names := []string{
		"after step 1 (scatter in pairs, stride 1)",
		"after step 2 (scatter in pairs, stride 2)",
		"after steps 3,4 (MST broadcast in triples)",
		"after step 5 (collect in stride-2 pairs)",
		"after step 6 (collect in stride-1 pairs)",
	}
	header := fmt.Sprintf("Fig. 1: broadcast hybrid %v on a 12-node linear array, root 0, vector x0..x%d\n",
		shape, n-1)
	return header + trace.RenderHoldings(names, holdings, p), nil
}

func identity(p int) []int {
	m := make([]int, p)
	for i := range m {
		m[i] = i
	}
	return m
}
