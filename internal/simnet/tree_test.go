package simnet

import (
	"testing"
)

// treeCfg: 8 ranks in 2 racks of 4, each rack split into 2-rank nodes.
// Round numbers per level so expected times are exact: intra-node α=10
// β=1 (Machine), cross-node α=50 β=1.5, cross-rack α=100 β=2.
func treeCfg(n int) Config {
	return Config{
		Rows: 1, Cols: n, Machine: testMachine(), CarryData: true,
		Levels: []Level{
			{Size: 4, Alpha: 100, Beta: 2},
			{Size: 2, Alpha: 50, Beta: 1.5},
		},
	}
}

// TestTreePointToPoint: a message pays the α and β of the coarsest level
// its endpoints diverge at — Machine's inside a node, the node level's
// across nodes of one rack, the rack level's across racks.
func TestTreePointToPoint(t *testing.T) {
	const n = 100
	run := func(dst int) float64 {
		res, err := Run(treeCfg(8), func(ep *Endpoint) error {
			buf := make([]byte, n)
			switch ep.Rank() {
			case 0:
				return ep.Send(dst, 7, buf)
			case dst:
				_, err := ep.Recv(0, 7, buf)
				return err
			default:
				return nil
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	approx(t, "intra-node 0→1", run(1), 10+100*1)
	approx(t, "cross-node 0→2", run(2), 50+100*1.5)
	approx(t, "cross-rack 0→4", run(4), 100+100*2)
}

// TestTreeUplinkSharing: two concurrent cross-rack flows leaving the same
// node share that node's uplink (and the rack's), so each runs at half
// bandwidth: α + 2nβ at rack pricing. Flows from distinct nodes of
// distinct racks see no shared link and finish in single-flow time.
func TestTreeUplinkSharing(t *testing.T) {
	const n = 100
	run := func(pairs [][2]int) float64 {
		res, err := Run(treeCfg(8), func(ep *Endpoint) error {
			buf := make([]byte, n)
			for _, pr := range pairs {
				switch ep.Rank() {
				case pr[0]:
					return ep.Send(pr[1], 3, buf)
				case pr[1]:
					_, err := ep.Recv(pr[0], 3, buf)
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	// 0→4 and 1→5: same source node {0,1}, same destination node {4,5}.
	approx(t, "shared uplink", run([][2]int{{0, 4}, {1, 5}}), 100+2*100*2)
	// 0→4 and 6→2: opposite directions through disjoint up/downlinks.
	approx(t, "disjoint flows", run([][2]int{{0, 4}, {6, 2}}), 100+100*2)
}

// TestTreeValidate: the tree mode rejects overlapping interconnect modes
// and malformed level maps.
func TestTreeValidate(t *testing.T) {
	base := treeCfg(8)
	for name, mut := range map[string]func(*Config){
		"levels+hypercube": func(c *Config) { c.Hypercube = true },
		"zero beta":        func(c *Config) { c.Levels[1].Beta = 0 },
		"bad size":         func(c *Config) { c.Levels[0].Size = 0 },
		"short of":         func(c *Config) { c.Levels[1].Of = []int{0, 1} },
		"non-nested of": func(c *Config) {
			// Node block 0 = {0, 4} spans both racks.
			c.Levels[1].Of = []int{0, 1, 1, 2, 0, 2, 3, 3}
		},
	} {
		c := base
		c.Levels = append([]Level(nil), base.Levels...)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
