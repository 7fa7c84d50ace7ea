package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/nxsim"
	"repro/internal/simnet"
)

// simOp runs one SPMD body on a simulated rows×cols Paragon-like mesh in
// timing-only mode and returns the virtual completion time.
func simOp(rows, cols int, m model.Machine, fn func(ep *simnet.Endpoint) error) (float64, error) {
	res, err := simnet.Run(simnet.Config{Rows: rows, Cols: cols, Machine: m}, fn)
	if err != nil {
		return 0, err
	}
	return res.Time, nil
}

// iccCtx builds a whole-world core context with the machine attached.
func iccCtx(ep *simnet.Endpoint) core.Ctx {
	c := core.NewCtx(ep, 1)
	m := ep.Machine()
	c.Machine = &m
	return c
}

// Op identifies a Table 3 operation.
type Op int

// The three representative operations of Table 3.
const (
	OpBcast Op = iota
	OpCollect
	OpGlobalSum
)

func (o Op) String() string {
	switch o {
	case OpBcast:
		return "Broadcast"
	case OpCollect:
		return "Collect (known lengths)"
	default:
		return "Global Sum"
	}
}

// RunNX times the NX baseline for op with an n-byte vector on a simulated
// rows×cols mesh.
func RunNX(op Op, rows, cols, n int, m model.Machine) (float64, error) {
	p := rows * cols
	cfg := nxsim.DefaultConfig(m)
	return simOp(rows, cols, m, func(ep *simnet.Endpoint) error {
		nx := nxsim.New(ep, cfg)
		switch op {
		case OpBcast:
			return nx.Bcast(nil, n, 0)
		case OpCollect:
			counts := core.EqualCounts(n, p)
			offs := make([]int, p+1)
			for i, c := range counts {
				offs[i+1] = offs[i] + c
			}
			return nx.Collect(nil, offs)
		default:
			return nx.GlobalSum(nil, nil, n/8, datatype.Float64, datatype.Sum)
		}
	})
}

// RunICC times the InterCom implementation for op with an n-byte vector
// under an explicit shape (pass the planner's choice for "auto").
func RunICC(op Op, rows, cols, n int, m model.Machine, s model.Shape) (float64, error) {
	p := rows * cols
	return simOp(rows, cols, m, func(ep *simnet.Endpoint) error {
		c := iccCtx(ep)
		switch op {
		case OpBcast:
			return c.Run(core.Buffers{})(core.BuildBcast(c, s, 0, n, 1))
		case OpCollect:
			return c.Run(core.Buffers{})(core.BuildCollect(c, s, core.EqualCounts(n, p), 1))
		default:
			return c.Run(core.Buffers{})(core.BuildAllReduce(c, s, n/8, datatype.Float64, datatype.Sum))
		}
	})
}

func collective(op Op) model.Collective {
	switch op {
	case OpBcast:
		return model.Bcast
	case OpCollect:
		return model.Collect
	default:
		return model.AllReduce
	}
}

// Table3 regenerates Table 3: NX versus InterCom times for broadcast,
// known-length collect and global sum at the given vector lengths on a
// simulated rows×cols Paragon mesh (the paper uses 16×32 and lengths
// 8 B, 64 KB, 1 MB).
func Table3(rows, cols int, lengths []int) (Table, error) {
	m := model.ParagonLike()
	pl := model.NewPlanner(m)
	layout := group.Mesh2D(rows, cols)
	t := Table{
		Title: fmt.Sprintf("Table 3: time (s) for representative collectives, %dx%d simulated Paragon mesh",
			rows, cols),
		Header: []string{"Operation", "length", "NX", "InterCom", "ratio"},
		Notes: []string{
			"NX modelled per nxsim package documentation (topology-oblivious trees, OS overheads); calibration in EXPERIMENTS.md",
		},
	}
	for _, op := range []Op{OpBcast, OpCollect, OpGlobalSum} {
		for _, n := range lengths {
			nx, err := RunNX(op, rows, cols, n, m)
			if err != nil {
				return t, fmt.Errorf("NX %v n=%d: %w", op, n, err)
			}
			shape, _ := pl.Best(collective(op), layout, n)
			icc, err := RunICC(op, rows, cols, n, m, shape)
			if err != nil {
				return t, fmt.Errorf("iCC %v n=%d: %w", op, n, err)
			}
			t.Rows = append(t.Rows, []string{
				op.String(), bytesLabel(n), secs(nx), secs(icc), fmt.Sprintf("%.2f", nx/icc),
			})
		}
	}
	return t, nil
}
