package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/simnet"
)

// GroupStructureStudy quantifies §9's performance claim: "performance for
// group operations is maintained by extracting information about the
// physical layout of a user-specified group". On a rows×cols mesh, the
// same-size collect runs within four kinds of 32-node groups: a physical
// row (conflict-free ring), a physical column, a rectangular sub-mesh
// (row/column techniques apply), and a scattered set (treated as a linear
// array, §9's fallback, whose XY paths overlap). The structured groups
// should win, increasingly so for long vectors.
func GroupStructureStudy(rows, cols int, lengths []int) (Table, error) {
	m := model.ParagonLike()
	pl := model.NewPlanner(m)
	type g struct {
		name    string
		members []int
	}
	phys := group.Mesh2D(rows, cols)
	sub := make([]int, 0, cols)
	// A (rows/4)×(cols/8)… keep it simple: a 4×(cols/4) rectangle has the
	// same size as a row when rows ≥ 4.
	for r := 0; r < 4; r++ {
		for c := 0; c < cols/4; c++ {
			sub = append(sub, r*cols+c)
		}
	}
	scattered := make([]int, cols)
	for i := range scattered {
		// A deterministic spread that is neither a row, column nor
		// rectangle: a diagonal with varying step.
		scattered[i] = (i*(cols+3) + i*i/3) % (rows * cols)
	}
	scattered = dedupe(scattered, rows*cols)
	groups := []g{
		{"physical row", group.Row(phys, rows/2)},
		{"physical column+", columnPlus(phys, cols)},
		{"4-row sub-mesh", sub},
		{"scattered", scattered},
	}
	t := Table{
		Title:  fmt.Sprintf("§9 group structure: collect within a %d-node group of a %dx%d mesh, time (s)", cols, rows, cols),
		Header: []string{"bytes"},
	}
	for _, gr := range groups {
		l, _ := group.DetectStructure(gr.members, phys)
		t.Header = append(t.Header, fmt.Sprintf("%s [%v]", gr.name, l))
	}
	for _, n := range lengths {
		row := []string{bytesLabel(n)}
		for _, gr := range groups {
			members := gr.members
			layout, _ := group.DetectStructure(members, phys)
			shape, _ := pl.Best(model.Collect, layout, n)
			counts := core.EqualCounts(n, len(members))
			res, err := simnet.Run(simnet.Config{Rows: rows, Cols: cols, Machine: m},
				func(ep *simnet.Endpoint) error {
					me := group.Index(members, ep.Rank())
					if me < 0 {
						return nil // not in the group
					}
					c := core.Ctx{EP: ep, Members: members, Me: me, Coll: 1}
					mach := m
					c.Machine = &mach
					return c.Run(core.Buffers{})(core.BuildCollect(c, shape, counts, 1))
				})
			if err != nil {
				return t, fmt.Errorf("%s n=%d: %w", gr.name, n, err)
			}
			row = append(row, secs(res.Time))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// columnPlus pads a physical column to `size` members by wrapping into the
// next column, producing a contiguous-stride group of the same size as a
// row for a fair comparison.
func columnPlus(phys group.Layout, size int) []int {
	cols := phys.Extents[0]
	rows := phys.Extents[1]
	members := make([]int, 0, size)
	for i := 0; i < size; i++ {
		col := 2 + i/rows
		row := i % rows
		members = append(members, row*cols+col)
	}
	return members
}

// dedupe keeps first occurrences and tops up with unused ranks to preserve
// the group size.
func dedupe(members []int, world int) []int {
	seen := make(map[int]bool, len(members))
	out := make([]int, 0, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	for r := 0; len(out) < len(members) && r < world; r++ {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}
