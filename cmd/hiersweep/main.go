// Command hiersweep compares flat and hierarchical collectives on
// simulated two-level machines: clusters of ranks with a fast local
// fabric, joined by an inter-cluster network whose β (and α) are a
// configurable factor worse and whose per-cluster uplink is shared by all
// of a cluster's ranks. For each scale it times the flat fixed algorithms,
// the flat auto hybrid (planned as a structure-blind linear array, §9's
// policy), and the two-level hierarchical composition, under both the
// lucky node-major ("blocks") placement and the adversarial round-robin
// placement.
//
// Usage:
//
//	go run ./cmd/hiersweep [-clusters 0] [-percluster 0] [-ratio 10] [-placement both] [-json]
//	go run ./cmd/hiersweep -ranks 256 -levels 64,8 [-ratio 10] [-placement both] [-json]
//
// With -clusters/-percluster left at 0 the tool sweeps 4×4, 8×8 and 16×16
// (16–256 ranks). -levels switches to the N-level tree machine: -ranks
// ranks in nested blocks of the given sizes (coarsest first, so 64,8 is
// racks of 64 containing nodes of 8), each level's α and β another -ratio
// factor worse than the one below, comparing flat, coarsest-partition
// two-level, and full recursive hierarchy. -json emits the same JSON
// schema as cmd/paper sweep -json (an array of {title, header, rows, notes}
// tables), so perf trajectories from the two tools are directly
// comparable.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"repro/internal/harness"
	"repro/internal/model"
)

func main() {
	clusters := flag.Int("clusters", 0, "number of clusters (0: sweep 4, 8, 16)")
	perCluster := flag.Int("percluster", 0, "ranks per cluster (0: sweep 4, 8, 16)")
	ratio := flag.Float64("ratio", 10, "per-level α and β degradation ratio")
	placement := flag.String("placement", "both", "rank placement: blocks, round-robin, or both")
	ranks := flag.Int("ranks", 0, "tree mode: total ranks (with -levels)")
	levels := flag.String("levels", "", "tree mode: nested block sizes, coarsest first (e.g. 64,8)")
	jsonOut := flag.Bool("json", false, "emit the shared sweep JSON schema instead of text tables")
	flag.Parse()

	tl := model.ClusterLike()
	tl.Global = tl.Local
	tl.Global.Alpha *= *ratio
	tl.Global.Beta *= *ratio

	if *clusters < 0 || *perCluster < 0 || (*clusters > 0) != (*perCluster > 0) {
		log.Fatalf("-clusters and -percluster must be set together to positive values (got %d, %d)", *clusters, *perCluster)
	}
	scales := [][2]int{{4, 4}, {8, 8}, {16, 16}}
	if *clusters > 0 {
		scales = [][2]int{{*clusters, *perCluster}}
	}
	var places []harness.Placement
	switch *placement {
	case "blocks":
		places = []harness.Placement{harness.Blocks}
	case "round-robin":
		places = []harness.Placement{harness.RoundRobin}
	case "both":
		places = []harness.Placement{harness.Blocks, harness.RoundRobin}
	default:
		log.Fatalf("unknown placement %q", *placement)
	}

	lengths := []int{8, 1024, 65536, 1 << 20}
	var tables []harness.Table
	if *levels != "" {
		if *ranks <= 0 {
			log.Fatalf("-levels requires -ranks")
		}
		var sizes []int
		for _, f := range strings.Split(*levels, ",") {
			sz, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || sz < 1 {
				log.Fatalf("bad -levels entry %q", f)
			}
			sizes = append(sizes, sz)
		}
		machines := make([]model.Machine, len(sizes)+1)
		machines[len(sizes)] = tl.Local
		for l := len(sizes) - 1; l >= 0; l-- {
			machines[l] = machines[l+1]
			machines[l].Alpha *= *ratio
			machines[l].Beta *= *ratio
		}
		for _, place := range places {
			tn := harness.TreeNet{P: *ranks, Sizes: sizes, Machines: machines, Place: place}
			for _, coll := range []model.Collective{model.Bcast, model.AllReduce, model.Reduce, model.Collect, model.ReduceScatter, model.AllToAll} {
				tab, err := harness.TreeSweep(tn, coll, lengths)
				if err != nil {
					log.Fatal(err)
				}
				tables = append(tables, tab)
			}
		}
		emit(tables, *jsonOut)
		return
	}
	for _, sc := range scales {
		for _, place := range places {
			for _, coll := range []model.Collective{model.Bcast, model.AllReduce, model.Reduce, model.Collect, model.ReduceScatter, model.AllToAll} {
				tab, err := harness.HierSweep(coll, sc[0], sc[1], tl, place, lengths)
				if err != nil {
					log.Fatal(err)
				}
				tables = append(tables, tab)
			}
		}
	}
	emit(tables, *jsonOut)
}

func emit(tables []harness.Table, jsonOut bool) {
	if jsonOut {
		s, err := harness.TablesJSON(tables)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(s)
		return
	}
	for _, tab := range tables {
		fmt.Println(tab)
	}
}
