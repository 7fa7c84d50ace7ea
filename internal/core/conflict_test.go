package core

import (
	"math"
	"testing"

	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/simnet"
)

// TestStridedGroupConflictMatchesModel validates the premise behind every
// bold conflict factor in Table 2: when s interleaved stride-s groups run
// bucket collects simultaneously on a linear array, each physical link
// carries s messages and the effective β is s times worse (LinkExcess 1).
// The simulator must agree with BucketCollect(d, n, conflict=s) exactly —
// this is measured emergent behaviour, not a formula the simulator was
// given.
func TestStridedGroupConflictMatchesModel(t *testing.T) {
	m := model.Machine{Alpha: 10, Beta: 1, Gamma: 0, LinkExcess: 1}
	for _, tc := range []struct{ stride, size int }{{2, 8}, {3, 10}, {5, 6}} {
		p := tc.stride * tc.size
		n := 100 * tc.size // divisible: equal buckets, model exact
		counts := equalCounts(n, tc.size)
		res, err := simnet.Run(simnet.Config{Rows: 1, Cols: p, Machine: m},
			func(ep *simnet.Endpoint) error {
				g := ep.Rank() % tc.stride
				members := group.Arithmetic(g, tc.stride, tc.size)
				c := Ctx{
					EP:      ep,
					Members: members,
					Me:      group.Index(members, ep.Rank()),
					Coll:    uint32(1), // same op in every group; tags may coincide, pairs are disjoint
				}
				mach := m
				c.Machine = &mach
				s := model.BucketShape(group.Linear(tc.size))
				return c.Run(Buffers{})(BuildCollect(c, s, counts, 1))
			})
		if err != nil {
			t.Fatal(err)
		}
		want := m.BucketCollect(tc.size, float64(n), tc.stride)
		if math.Abs(res.Time-want) > 1e-9*want {
			t.Errorf("stride %d × size %d: sim %.6g, model with conflict %d %.6g",
				tc.stride, tc.size, res.Time, tc.stride, want)
		}
		// And the conflict factor really is the stride: the run must be
		// almost exactly stride× slower than a single conflict-free group.
		solo := m.BucketCollect(tc.size, float64(n), 1)
		alphaPart := float64(tc.size-1) * m.Alpha
		gotFactor := (res.Time - alphaPart) / (solo - alphaPart)
		if math.Abs(gotFactor-float64(tc.stride)) > 1e-6 {
			t.Errorf("stride %d: measured conflict factor %.4f", tc.stride, gotFactor)
		}
	}
}

// TestStridedGroupsWithExcess: §7.1's refinement — with LinkExcess 2, two
// interleaved groups fit without penalty, and three share 2× bandwidth.
func TestStridedGroupsWithExcess(t *testing.T) {
	m := model.Machine{Alpha: 10, Beta: 1, Gamma: 0, LinkExcess: 2}
	for _, stride := range []int{2, 3} {
		const size = 6
		p := stride * size
		n := 60 * size
		counts := equalCounts(n, size)
		res, err := simnet.Run(simnet.Config{Rows: 1, Cols: p, Machine: m},
			func(ep *simnet.Endpoint) error {
				g := ep.Rank() % stride
				members := group.Arithmetic(g, stride, size)
				c := Ctx{EP: ep, Members: members, Me: group.Index(members, ep.Rank()), Coll: 1}
				mach := m
				c.Machine = &mach
				return c.Run(Buffers{})(BuildCollect(c, model.BucketShape(group.Linear(size)), counts, 1))
			})
		if err != nil {
			t.Fatal(err)
		}
		want := m.BucketCollect(size, float64(n), stride) // uses max(1, stride/2)
		if math.Abs(res.Time-want) > 1e-9*want {
			t.Errorf("stride %d with excess 2: sim %.6g, model %.6g", stride, res.Time, want)
		}
	}
}
