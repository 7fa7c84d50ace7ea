package model

import (
	"math"
	"testing"

	"repro/internal/group"
)

// TestHierarchyCostSelection: on a machine whose global level is 10× worse in α
// and β, the two-level composition must undercut the best flat hybrid
// (planned with the global parameters, structure-blind) for large
// all-reduces — the condition under which the planner switches to
// HierShape — while on a uniform machine the hierarchy must never win.
func TestHierarchyCostSelection(t *testing.T) {
	tl := ClusterLike()
	h2 := tl.Hierarchy()
	// 8 clusters × 8 ranks, node-major and dealt round-robin.
	blocks, err := group.TopologyBySizes(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	rr := make([]int, 64)
	for i := range rr {
		rr[i] = i % 8
	}
	scattered, err := group.NewTopology(rr)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(tl.Global)
	layout := group.Linear(64)
	for _, n := range []int{65536, 1 << 20} {
		_, flat := pl.Best(AllReduce, layout, n)
		h := h2.Cost(AllReduce, blocks, float64(n))
		if h >= flat {
			t.Errorf("n=%d: hier cost %g not below flat %g", n, h, flat)
		}
		// A non-contiguous partition pays linear edge phases for collect
		// and reduce-scatter; the cost must not be cheaper than the
		// contiguous MST form.
		for _, c := range []Collective{Collect, ReduceScatter} {
			if nc, co := h2.Cost(c, scattered, float64(n)), h2.Cost(c, blocks, float64(n)); nc < co {
				t.Errorf("%v n=%d: non-contiguous cost %g below contiguous %g", c, n, nc, co)
			}
		}
	}

	// On a uniform machine the whole-vector collectives gain nothing from
	// the hierarchy: their flat hybrid menu already contains every
	// two-level decomposition, so the composition can at best tie.
	// (Collect and reduce-scatter are excluded: the flat executor can only
	// realize single-dimension shapes for externally partitioned
	// collectives on a linear array, so the hierarchy is a genuinely new
	// decomposition there and may legitimately win even on uniform
	// machines.)
	uni := UniformHierarchy(ParagonLike())
	plu := NewPlanner(ParagonLike())
	for _, c := range []Collective{Bcast, Reduce, AllReduce} {
		for _, n := range []int{8, 65536, 1 << 20} {
			_, flat := plu.Best(c, layout, n)
			h := uni.Cost(c, blocks, float64(n))
			if h < flat*(1-1e-9) {
				t.Errorf("%v n=%d: uniform machine prefers hierarchy (%g < %g)", c, n, h, flat)
			}
		}
	}
}

// TestHierarchyCostUnsupported: collectives the executor does not run
// hierarchically must cost +Inf so selection never picks them.
func TestHierarchyCostUnsupported(t *testing.T) {
	topo, err := group.TopologyBySizes(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Collective{Scatter, Gather} {
		if h := ClusterLike().Hierarchy().Cost(c, topo, 1024); !math.IsInf(h, 1) {
			t.Errorf("%v: hier cost %g, want +Inf", c, h)
		}
	}
}

// TestHierShape: the hierarchical shape renders and validates.
func TestHierShape(t *testing.T) {
	s := HierShape()
	if !s.Hier {
		t.Fatal("HierShape not hierarchical")
	}
	if err := s.Validate(64); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if got := s.String(); got != "(two-level, H)" {
		t.Fatalf("String: %q", got)
	}
	if got := s.Strategy(); got != "H" {
		t.Fatalf("Strategy: %q", got)
	}
}
