// Tests for the N-level hierarchy: the full conformance program under a
// three-level topology across all three transports, plan-once semantics
// for N-level plans on the persistent and non-blocking paths, and the
// ragged hierarchical AllToAllv against its flat counterpart.
package icc_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	icc "repro"
	"repro/internal/model"
	"repro/internal/tcptransport"
)

// treeLevels returns a non-contiguous 3-level partition of 12 ranks:
// rank r sits in rack r mod 2 and node r mod 6 (two racks of six, each
// split into three two-rank nodes, dealt round-robin) — the placement
// that forces the canonical-relabeling and pack/unpack paths of every
// partitioned collective.
func treeLevels() (p int, levels [][]int) {
	p = 12
	racks := make([]int, p)
	nodes := make([]int, p)
	for r := 0; r < p; r++ {
		racks[r] = r % 2
		nodes[r] = r % 6
	}
	return p, [][]int{racks, nodes}
}

// confTopoChan runs the conformance program over the channel transport
// with the 3-level topology attached and the hierarchy forced.
func confTopoChan(t *testing.T, p, count int, levels [][]int) [][][]byte {
	t.Helper()
	outs := newConfOuts(p, count)
	w := icc.NewChannelWorld(p, icc.WithAlg(icc.AlgHier))
	if err := w.Run(func(c *icc.Comm) error {
		h, err := c.WithTopology(levels...)
		if err != nil {
			return err
		}
		return runConfProgram(h, count, outs)
	}); err != nil {
		t.Fatalf("chantransport hier: %v", err)
	}
	return outs
}

// confTopoTCP is the same program over real sockets.
func confTopoTCP(t *testing.T, p, count int, levels [][]int) [][][]byte {
	t.Helper()
	outs := newConfOuts(p, count)
	eps, err := tcptransport.NewLocalWorld(p, tcptransport.WithRecvTimeout(time.Minute))
	if err != nil {
		t.Fatalf("tcptransport: %v", err)
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer eps[r].Close()
			c, nerr := icc.New(eps[r], icc.WithAlg(icc.AlgHier))
			if nerr != nil {
				errs[r] = nerr
				return
			}
			h, herr := c.WithTopology(levels...)
			if herr != nil {
				errs[r] = herr
				return
			}
			errs[r] = runConfProgram(h, count, outs)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("tcptransport hier rank %d: %v", r, err)
		}
	}
	return outs
}

// confTopoSim runs the program on the simulated rack/node/socket machine
// in carry-data mode, with the nested partition declared by sizes.
func confTopoSim(t *testing.T, p, count int, sizes []int) [][][]byte {
	t.Helper()
	outs := newConfOuts(p, count)
	_, err := icc.SimulateHierarchy(p, sizes, model.RackLike().Machines, true,
		func(c *icc.Comm) error {
			h, herr := c.WithTopologyBySizes(sizes...)
			if herr != nil {
				return herr
			}
			return runConfProgram(h, count, outs)
		}, icc.WithAlg(icc.AlgHier))
	if err != nil {
		t.Fatalf("simnet hier: %v", err)
	}
	return outs
}

// TestTopologyConformanceAcrossTransports: the full conformance program
// (all 13 public collectives, uneven and zero counts included) under a
// forced 3-level hierarchy must produce bitwise the flat reference
// results on every rank, over the channel transport and real sockets
// with a round-robin (non-contiguous) topology, and on the simulated
// tree machine with a block-major one.
func TestTopologyConformanceAcrossTransports(t *testing.T) {
	p, levels := treeLevels()
	for _, count := range []int{0, 3, 17} {
		count := count
		t.Run(fmt.Sprintf("n%d", count), func(t *testing.T) {
			ref := confChan(t, p, count)
			others := map[string][][][]byte{
				"chan+topo": confTopoChan(t, p, count, levels),
				"tcp+topo":  confTopoTCP(t, p, count, levels),
				"sim+topo":  confTopoSim(t, p, count, []int{6, 3}),
			}
			cases := conformanceCases(p, count)
			for name, got := range others {
				for r := 0; r < p; r++ {
					for ci, cc := range cases {
						if !bytes.Equal(ref[r][ci], got[r][ci]) {
							t.Errorf("%s: %s rank %d: %x != flat %x",
								name, cc.name, r, got[r][ci], ref[r][ci])
						}
					}
				}
			}
		})
	}
}

// TestTopologyPlanCacheNLevel: N-level plans are built and cached exactly
// like flat ones — a blocking call over a 3-level topology builds the plan,
// a persistent handle with the same signature hits it and repeated Starts
// run it, a second handle and a non-blocking issue hit it too, and the
// flat shape planner never runs (the hierarchy is forced).
func TestTopologyPlanCacheNLevel(t *testing.T) {
	const p, count, iters = 8, 24, 6
	w := icc.NewChannelWorld(p, icc.WithAlg(icc.AlgHier))
	if err := w.Run(func(base *icc.Comm) error {
		c, err := base.WithTopologyBySizes(4, 2)
		if err != nil {
			return err
		}
		me := c.Rank()

		// Blocking reference.
		send := confInt64s(me, count, 81)
		want := make([]byte, count*8)
		if err := c.AllReduce(send, want, count, icc.Int64, icc.Sum); err != nil {
			return err
		}

		recv := make([]byte, count*8)
		h, err := c.AllReduceInit(send, recv, count, icc.Int64, icc.Sum)
		if err != nil {
			return err
		}
		defer h.Free()
		for it := 0; it < iters; it++ {
			if err := startWait(h); err != nil {
				return err
			}
			if !bytes.Equal(recv, want) {
				return fmt.Errorf("rank %d iter %d: replay differs from blocking", me, it)
			}
		}
		if st := c.PlanCacheStats(); st.Entries != 1 || st.Misses != 1 || st.Hits != 1 {
			return fmt.Errorf("rank %d: cache stats %+v after a blocking call and one Init", me, st)
		}

		// Same signature again: persistent and non-blocking both hit.
		h2, err := c.AllReduceInit(send, recv, count, icc.Int64, icc.Sum)
		if err != nil {
			return err
		}
		h2.Free()
		req, err := c.IAllReduce(send, recv, count, icc.Int64, icc.Sum)
		if err != nil {
			return err
		}
		if err := req.Wait(); err != nil {
			return err
		}
		if !bytes.Equal(recv, want) {
			return fmt.Errorf("rank %d: non-blocking replay differs", me)
		}
		if st := c.PlanCacheStats(); st.Entries != 1 || st.Misses != 1 || st.Hits != 3 {
			return fmt.Errorf("rank %d: cache stats %+v after reuse", me, st)
		}
		if calls := c.PlannerCalls(); calls != 0 {
			return fmt.Errorf("rank %d: flat planner ran %d times under forced hierarchy", me, calls)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestHierAllToAllvMatchesFlat: the ragged cluster exchange — leaders
// allgather the count matrix and exchange aggregated blocks — produces
// bitwise the flat pairwise results under 3-level topologies, including
// zero-length pairs, for several group sizes.
func TestHierAllToAllvMatchesFlat(t *testing.T) {
	for _, p := range []int{4, 9, 12} {
		p := p
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			racks := make([]int, p)
			nodes := make([]int, p)
			for r := 0; r < p; r++ {
				racks[r] = r % 2
				nodes[r] = r % 4
				if p < 8 {
					nodes[r] = r % 2
				}
			}
			body := func(c *icc.Comm, out *[]byte) error {
				me := c.Rank()
				sendCounts := make([]int, p)
				recvCounts := make([]int, p)
				sendTotal, recvTotal := 0, 0
				for j := 0; j < p; j++ {
					sendCounts[j] = confPairCount(me, j, 7)
					recvCounts[j] = confPairCount(j, me, 7)
					sendTotal += sendCounts[j]
					recvTotal += recvCounts[j]
				}
				send := confInt64s(me, sendTotal, 91)
				recv := make([]byte, recvTotal*8)
				if err := c.AllToAllv(send, sendCounts, recv, recvCounts, icc.Int64); err != nil {
					return err
				}
				*out = recv
				return nil
			}
			flat := make([][]byte, p)
			wf := icc.NewChannelWorld(p)
			if err := wf.Run(func(c *icc.Comm) error { return body(c, &flat[c.Rank()]) }); err != nil {
				t.Fatal(err)
			}
			hier := make([][]byte, p)
			wh := icc.NewChannelWorld(p, icc.WithAlg(icc.AlgHier))
			if err := wh.Run(func(c *icc.Comm) error {
				h, err := c.WithTopology(racks, nodes)
				if err != nil {
					return err
				}
				return body(h, &hier[c.Rank()])
			}); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < p; r++ {
				if !bytes.Equal(flat[r], hier[r]) {
					t.Fatalf("rank %d: hier a2av %x != flat %x", r, hier[r], flat[r])
				}
			}
		})
	}
}
