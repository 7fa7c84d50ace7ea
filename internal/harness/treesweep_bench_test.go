package harness

import (
	"fmt"
	"testing"

	"repro/internal/group"
	"repro/internal/model"
)

// BenchmarkTreeCollective records the virtual-time cost of a 1 MiB
// all-reduce on the simulated rack/node/socket machine at 64 and 256
// ranks, attacked flat (structure-blind auto hybrid), with the two-level
// composition over the coarsest partition, and with the full 3-level
// recursion. The interesting metric is sim-s/op (simulated seconds),
// not ns/op (host time to run the simulation).
func BenchmarkTreeCollective(b *testing.B) {
	const n = 1 << 20
	for _, p := range []int{64, 256} {
		sizes := []int{16, 4}
		if p == 256 {
			sizes = []int{64, 8}
		}
		tn := TreeNet{P: p, Sizes: sizes, Machines: model.RackLike().Machines, Place: RoundRobin}
		pl := model.NewPlanner(tn.Machines[0])
		flat, _ := pl.Best(model.AllReduce, group.Linear(p), n)
		for _, v := range []struct {
			name  string
			depth int
			s     model.Shape
		}{
			{"flat", 0, flat},
			{"2level", 1, model.HierShape()},
			{"3level", 2, model.HierShape()},
		} {
			b.Run(fmt.Sprintf("%s/p%d", v.name, p), func(b *testing.B) {
				var sec float64
				for i := 0; i < b.N; i++ {
					s, err := runTree(tn, model.AllReduce, v.depth, n, v.s, false)
					if err != nil {
						b.Fatal(err)
					}
					sec = s
				}
				b.ReportMetric(sec, "sim-s/op")
			})
		}
	}
}
