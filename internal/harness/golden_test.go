package harness

import (
	"testing"

	"repro/internal/model"
)

// The depth-1 golden tables. The values below were recorded at the last
// commit that still had a separate clustered interconnect model in simnet
// (a cluster size, an inter-cluster machine and a rank→cluster map beside
// Config.Levels) and a separate two-level context in core (a Cluster and a
// TwoLevel beside Ctx.Topology/Ctx.Hierarchy); a one-entry simnet.Levels
// and a depth-1 group.Topology must reproduce them bit for bit — virtual
// time is deterministic, so any difference is a behaviour change, not
// noise.

// TestGoldenHierPoint: flat-auto and hierarchical seconds on 8 clusters of
// 8 ranks with ClusterLike parameters, both placements, three lengths.
func TestGoldenHierPoint(t *testing.T) {
	golden := []struct {
		coll       model.Collective
		place      Placement
		n          int
		flat, hier float64
	}{
		{model.Bcast, Blocks, 1024, 0.0001777584, 0.0001777584},
		{model.Bcast, Blocks, 65536, 0.0005954304, 0.0006035376000000002},
		{model.Bcast, Blocks, 1048576, 0.0076454544000000004, 0.0045930176000000015},
		{model.Bcast, RoundRobin, 1024, 0.0002207664, 0.0001777584},
		{model.Bcast, RoundRobin, 65536, 0.0018790608000000004, 0.0006035376000000002},
		{model.Bcast, RoundRobin, 1048576, 0.020254580800000012, 0.0045930176000000015},
		{model.Reduce, Blocks, 1024, 0.00018390239999999998, 0.00018390239999999998},
		{model.Reduce, Blocks, 65536, 0.0007118416000000003, 0.0008761056000000002},
		{model.Reduce, Blocks, 1048576, 0.008694030399999997, 0.0064280256},
		{model.Reduce, RoundRobin, 1024, 0.00022691039999999998, 0.00018390239999999998},
		{model.Reduce, RoundRobin, 65536, 0.0015423983999999992, 0.0008761056000000002},
		{model.Reduce, RoundRobin, 1048576, 0.02130315680000002, 0.0064280256},
		{model.AllReduce, Blocks, 1024, 0.00034992640000000005, 0.00038992640000000016},
		{model.AllReduce, Blocks, 65536, 0.0009990848000000004, 0.0010868255999999998},
		{model.AllReduce, Blocks, 1048576, 0.0058092095999999985, 0.005839209599999998},
		{model.AllReduce, RoundRobin, 1024, 0.00036610560000000013, 0.00038992640000000016},
		{model.AllReduce, RoundRobin, 65536, 0.0025618208, 0.0010868255999999998},
		{model.AllReduce, RoundRobin, 1048576, 0.030908195200000044, 0.005839209599999998},
		{model.Collect, Blocks, 1024, 0.00032383360000000003, 0.00035057280000000017},
		{model.Collect, Blocks, 65536, 0.0012839376000000002, 0.0005414432000000001},
		{model.Collect, Blocks, 1048576, 0.0056215088, 0.0026459471999999967},
		{model.Collect, RoundRobin, 1024, 0.0002689936000000001, 0.00035057280000000017},
		{model.Collect, RoundRobin, 65536, 0.0003111568000000002, 0.0005414432000000001},
		{model.Collect, RoundRobin, 1048576, 0.018115072000000003, 0.0026459471999999967},
		{model.ReduceScatter, Blocks, 1024, 0.0003248416, 0.00035671680000000014},
		{model.ReduceScatter, Blocks, 65536, 0.0013484496000000002, 0.0006747472000000002},
		{model.ReduceScatter, Blocks, 1048576, 0.006653700799999998, 0.0044809552},
		{model.ReduceScatter, RoundRobin, 1024, 0.0002700016, 0.00035671680000000014},
		{model.ReduceScatter, RoundRobin, 65536, 0.00037566880000000006, 0.0006747472000000002},
		{model.ReduceScatter, RoundRobin, 1048576, 0.019147264000000008, 0.0044809552},
		{model.AllToAll, Blocks, 1024, 0.0003377440000000001, 0.0002644432000000001},
		{model.AllToAll, Blocks, 65536, 0.002337616, 0.001535004799999999},
		{model.AllToAll, Blocks, 1048576, 0.017830064000000014, 0.018050076800000005},
		{model.AllToAll, RoundRobin, 1024, 0.00019588320000000006, 0.0002644432000000001},
		{model.AllToAll, RoundRobin, 65536, 0.0017635248, 0.001535004799999999},
		{model.AllToAll, RoundRobin, 1048576, 0.017538001600000002, 0.018050076800000005},
	}
	tl := model.ClusterLike()
	for _, g := range golden {
		flat, hier, err := HierPoint(g.coll, 8, 8, g.n, tl, g.place)
		if err != nil {
			t.Fatalf("%v %s n=%d: %v", g.coll, g.place, g.n, err)
		}
		if flat != g.flat || hier != g.hier {
			t.Errorf("%v %s n=%d: flat %v hier %v, recorded flat %v hier %v",
				g.coll, g.place, g.n, flat, hier, g.flat, g.hier)
		}
	}
}

// TestGoldenSwitchedAllToAll: the Bruck and pairwise exchanges on the
// 16-rank switched fabric of AllToAllCrossover (one block holding every
// rank).
func TestGoldenSwitchedAllToAll(t *testing.T) {
	const p = 16
	golden := []struct {
		n           int
		short, long float64
	}{
		{1024, 0.00048559999999999993, 0.0015120000000000008},
		{65536, 0.0020984000000000003, 0.0022679999999999996},
	}
	m := model.ParagonLike()
	short, long := model.AllToAllShapes(p)
	for _, g := range golden {
		st, err := runSwitchedAllToAll(p, a2aBytes(g.n, p), m, short)
		if err != nil {
			t.Fatal(err)
		}
		lt, err := runSwitchedAllToAll(p, a2aBytes(g.n, p), m, long)
		if err != nil {
			t.Fatal(err)
		}
		if st != g.short || lt != g.long {
			t.Errorf("n=%d: short %v long %v, recorded short %v long %v", g.n, st, lt, g.short, g.long)
		}
	}
}
