package icc

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/datatype"
	"repro/internal/model"
)

// A cluster partition is a depth-1 topology: these tests pin that
// WithClusters and a one-level WithTopology are the same communicator
// whichever way the per-level machine parameters arrive, and that
// SimulateClusters is SimulateHierarchy with one level.

// TestGoldenSimulateClusters: seconds and message counts of an auto-mode
// all-reduce on SimulateClusters(4, 4, ClusterLike), with and without the
// cluster partition attached, recorded at the last commit that had a
// separate clustered interconnect model in simnet. The one-level tree
// must reproduce them exactly (virtual time is deterministic).
func TestGoldenSimulateClusters(t *testing.T) {
	golden := []struct {
		n           int
		partitioned bool
		seconds     float64
		messages    int64
	}{
		{1024, false, 0.00022433920000000006, 128},
		{1024, true, 0.00024377920000000003, 120},
		{65536, false, 0.0004977088, 128},
		{65536, true, 0.0006077088000000002, 192},
		{1048576, false, 0.005572771199999999, 256},
		{1048576, true, 0.004773340799999999, 192},
	}
	tl := model.ClusterLike()
	for _, g := range golden {
		res, err := SimulateClusters(4, 4, tl.Local, tl.Global, false, func(c *Comm) error {
			if g.partitioned {
				var err error
				if c, err = c.WithClustersBySize(4); err != nil {
					return err
				}
			}
			return c.AllReduce(nil, nil, g.n, Uint8, Sum)
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Seconds != g.seconds || res.Messages != g.messages {
			t.Errorf("n=%d partitioned=%v: %v s %d msgs, recorded %v s %d msgs",
				g.n, g.partitioned, res.Seconds, res.Messages, g.seconds, g.messages)
		}
	}
}

// depth1Source is one way per-level machine parameters can reach a
// communicator. sim runs fn on the simulated machine the source implies:
// a flat mesh whose declared single machine the option overrides, or —
// for the transport-declared source — the clustered machine itself.
type depth1Source struct {
	name string
	opts []Option
	sim  func(carry bool, fn func(c *Comm) error, opts ...Option) (SimResult, error)
}

// depth1Sources lists every such way.
func depth1Sources(t *testing.T) []depth1Source {
	const k, q = 4, 4
	tl := model.ClusterLike()
	mesh := func(carry bool, fn func(c *Comm) error, opts ...Option) (SimResult, error) {
		return SimulateMesh(1, k*q, ParagonMachine(), carry, fn, opts...)
	}
	clusters := func(carry bool, fn func(c *Comm) error, opts ...Option) (SimResult, error) {
		return SimulateClusters(k, q, tl.Local, tl.Global, carry, fn, opts...)
	}
	path := filepath.Join(t.TempDir(), "two-level.json")
	prof := &Profile{
		Transport: "test", FittedAt: "2026-09-26", Machine: tl.Local,
		Levels: []model.ProfileLevel{{Label: "inter-node", Machine: tl.Global}, {Label: "intra-node", Machine: tl.Local}},
	}
	if err := prof.Save(path); err != nil {
		t.Fatal(err)
	}
	return []depth1Source{
		{"none", nil, mesh},
		{"WithTwoLevel", []Option{WithTwoLevel(tl.Local, tl.Global)}, mesh},
		{"WithMachines", []Option{WithMachines(tl.Global, tl.Local)}, mesh},
		{"WithProfile", []Option{WithProfile(path)}, mesh},
		{"simnet-declared", nil, clusters},
	}
}

// depth1Map deals 16 ranks round-robin over 4 clusters — a placement the
// flat planner cannot see, so the partition decides the shape.
func depth1Map() (map[int]int, []int) {
	of := make(map[int]int)
	lv := make([]int, 16)
	for r := range lv {
		of[r], lv[r] = r%4, r%4
	}
	return of, lv
}

// TestClustersIsDepth1Topology: for every machine source, the WithClusters
// and the one-level WithTopology communicators resolve every (collective,
// length) to the same shape and so cost the same simulated seconds and
// messages in auto mode.
func TestClustersIsDepth1Topology(t *testing.T) {
	of, lv := depth1Map()
	colls := []model.Collective{model.AllReduce, model.Bcast, model.Collect}
	var lengths []int
	for n := 16; n <= 4<<20; n *= 4 {
		lengths = append(lengths, n)
	}
	for _, src := range depth1Sources(t) {
		t.Run(src.name, func(t *testing.T) {
			run := func(attach func(c *Comm) (*Comm, error), coll model.Collective, n int) (SimResult, Shape) {
				var shape Shape
				res, err := src.sim(false, func(c *Comm) error {
					cc, err := attach(c)
					if err != nil {
						return err
					}
					if cc.Rank() == 0 {
						shape = cc.resolveShape(coll, n)
					}
					switch coll {
					case model.Bcast:
						return cc.Bcast(nil, n, Uint8, 0)
					case model.Collect:
						return cc.Collect(nil, nil, n/cc.Size(), Uint8)
					default:
						return cc.AllReduce(nil, nil, n, Uint8, Sum)
					}
				}, src.opts...)
				if err != nil {
					t.Fatalf("%v n=%d: %v", coll, n, err)
				}
				return res, shape
			}
			hier := 0
			for _, coll := range colls {
				for _, n := range lengths {
					rc, sc := run(func(c *Comm) (*Comm, error) { return c.WithClusters(of) }, coll, n)
					rt, st := run(func(c *Comm) (*Comm, error) { return c.WithTopology(lv) }, coll, n)
					if sc.String() != st.String() {
						t.Errorf("%v n=%d: WithClusters resolves %v, WithTopology %v", coll, n, sc, st)
					}
					if rc != rt {
						t.Errorf("%v n=%d: WithClusters %v s %d msgs, WithTopology %v s %d msgs",
							coll, n, rc.Seconds, rc.Messages, rt.Seconds, rt.Messages)
					}
					if st.Hier {
						hier++
					}
				}
			}
			// The sweep must exercise both outcomes wherever a slower
			// coarse level exists, or the equivalence is vacuous.
			if src.name != "none" && (hier == 0 || hier == len(colls)*len(lengths)) {
				t.Errorf("sweep resolved %d of %d points hierarchically; want a mix", hier, len(colls)*len(lengths))
			}
		})
	}
}

// TestClustersIsDepth1TopologyResults: the two communicators compute
// bitwise-identical results on the chan transport (float sums expose a
// different combine order), and on the data-carrying simulation for the
// transport-declared source.
func TestClustersIsDepth1TopologyResults(t *testing.T) {
	of, lv := depth1Map()
	const p = 16
	for _, src := range depth1Sources(t) {
		for _, count := range []int{p, 3 * p, 4096} {
			name := fmt.Sprintf("%s/n%d", src.name, count)
			fn := func(c *Comm) error {
				cc, err := c.WithClusters(of)
				if err != nil {
					return err
				}
				ct, err := c.WithTopology(lv)
				if err != nil {
					return err
				}
				vals := make([]float64, count)
				for i := range vals {
					vals[i] = math.Ldexp(1+float64(i%7)/8, (c.Rank()*5+i)%40-20)
				}
				send := make([]byte, 8*count)
				datatype.PutFloat64s(send, vals)
				var got [2][3][]byte
				for j, x := range []*Comm{cc, ct} {
					ar := make([]byte, 8*count)
					if err := x.AllReduce(send, ar, count, Float64, Sum); err != nil {
						return err
					}
					bc := append([]byte(nil), send...)
					if err := x.Bcast(bc, count, Float64, 3); err != nil {
						return err
					}
					co := make([]byte, 8*count)
					if err := x.Collect(send[:8*count/p], co, count/p, Float64); err != nil {
						return err
					}
					got[j] = [3][]byte{ar, bc, co}
				}
				for i, what := range []string{"all-reduce", "bcast", "collect"} {
					if !bytes.Equal(got[0][i], got[1][i]) {
						return Errorf(c, "%s: %s differs between WithClusters and WithTopology", name, what)
					}
				}
				return nil
			}
			var err error
			if src.name == "simnet-declared" {
				_, err = src.sim(true, fn)
			} else {
				err = NewChannelWorld(p, src.opts...).Run(fn)
			}
			if err != nil {
				t.Error(err)
			}
		}
	}
}
