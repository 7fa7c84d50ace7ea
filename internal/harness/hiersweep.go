package harness

import (
	"fmt"

	"repro/internal/group"
	"repro/internal/model"
)

// HierSweep compares flat and hierarchical collectives on a simulated
// two-level machine: nClusters clusters of perCluster ranks, intra-cluster
// messages on tl.Local's α/β, inter-cluster messages on tl.Global's. For
// each message length it times the flat fixed algorithms (MST, bucket),
// the flat auto hybrid (planned with the global parameters, the honest
// flat choice on a clustered net), and the two-level hierarchical
// composition, and reports the hierarchy's speedup over the best flat run.

// Placement names a rank→node assignment convention.
type Placement string

// Placements: Blocks is the node-major convention (consecutive ranks
// share a node — the layout stride-based flat hybrids happen to align
// with); RoundRobin deals ranks across nodes cyclically (cluster of rank
// r is r mod K), the placement that defeats structure-blind planning and
// where the declared cluster map earns its keep.
const (
	Blocks     Placement = "blocks"
	RoundRobin Placement = "round-robin"
)

// clusterNet is the nClusters×perCluster two-level machine as a one-level
// tree: the depth-1 case of the TreeNet every hierarchy sweep runs on.
func clusterNet(nClusters, perCluster int, tl model.TwoLevel, pl Placement) TreeNet {
	return TreeNet{
		P: nClusters * perCluster, Sizes: []int{perCluster},
		Machines: tl.Hierarchy().Machines, Place: pl,
	}
}

// HierPoint times one collective at one length on the clustered machine,
// returning the flat auto hybrid's and the hierarchy's simulated seconds —
// the benchmark-friendly core of HierSweep.
func HierPoint(coll model.Collective, nClusters, perCluster, n int, tl model.TwoLevel, place Placement) (flatAuto, hier float64, err error) {
	flatAuto, hier, _, err = TreePoint(clusterNet(nClusters, perCluster, tl, place), coll, n)
	return flatAuto, hier, err
}

// HierSweep produces the flat-versus-hierarchical table for one collective
// on an nClusters×perCluster two-level machine. The flat algorithms plan
// over a linear array — §9's policy for groups whose physical structure
// the library does not know, which is exactly a cluster whose rank→node
// map has not been declared — while the hierarchy exploits the map.
func HierSweep(coll model.Collective, nClusters, perCluster int, tl model.TwoLevel, place Placement, lengths []int) (Table, error) {
	tn := clusterNet(nClusters, perCluster, tl, place)
	layout := group.Linear(tn.P)
	t := Table{
		Title: fmt.Sprintf("hierarchy: %v on %d clusters × %d ranks (%s placement), inter/intra β ratio %.0f, time (s)",
			coll, nClusters, perCluster, place, tl.Global.Beta/tl.Local.Beta),
		Header: []string{"bytes", "flat short", "flat long", "flat auto", "hier", "speedup"},
		Notes: []string{"flat algorithms plan the group as a linear array (structure-blind, §9); " +
			"hier composes intra-cluster and leader-level phases from the declared cluster map"},
	}
	if coll == model.AllToAll {
		t.Notes = append(t.Notes,
			"complete-exchange rows round the vector up to a whole equal block per pair")
	}
	for _, n := range lengths {
		if coll == model.AllToAll {
			n = a2aBytes(n, tn.P)
		}
		short, err := runTree(tn, coll, 0, n, model.MSTShape(layout), false)
		if err != nil {
			return t, fmt.Errorf("%v flat short n=%d: %w", coll, n, err)
		}
		long, err := runTree(tn, coll, 0, n, model.BucketShape(layout), false)
		if err != nil {
			return t, fmt.Errorf("%v flat long n=%d: %w", coll, n, err)
		}
		auto, hier, _, err := TreePoint(tn, coll, n)
		if err != nil {
			return t, fmt.Errorf("%v flat auto / hier n=%d: %w", coll, n, err)
		}
		best := short
		if long < best {
			best = long
		}
		if auto < best {
			best = auto
		}
		t.Rows = append(t.Rows, []string{
			bytesLabel(n), secs(short), secs(long), secs(auto), secs(hier),
			fmt.Sprintf("%.2f", best/hier),
		})
	}
	return t, nil
}
