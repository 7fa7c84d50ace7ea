package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/group"
	"repro/internal/model"
)

// xBlock returns the deterministic payload of the block src sends to dst,
// so every byte of a misrouted block is attributable.
func xBlock(src, dst, nb int) []byte {
	b := make([]byte, nb)
	for i := range b {
		b[i] = byte(src*131 + dst*17 + i*7 + 9)
	}
	return b
}

// xSend assembles logical node me's send vector: p blocks of blk bytes.
func xSend(me, p, blk int) []byte {
	buf := make([]byte, 0, p*blk)
	for dst := 0; dst < p; dst++ {
		buf = append(buf, xBlock(me, dst, blk)...)
	}
	return buf
}

// xWant assembles the expected recv vector: block j from node j.
func xWant(me, p, blk int) []byte {
	buf := make([]byte, 0, p*blk)
	for src := 0; src < p; src++ {
		buf = append(buf, xBlock(src, me, blk)...)
	}
	return buf
}

// TestAllToAllBothSchedules: the Bruck relay and the pairwise schedule
// both route every block to its addressee, for every group size in the
// test menu and vector lengths including empty blocks.
func TestAllToAllBothSchedules(t *testing.T) {
	for _, p := range testPs {
		short, long := model.AllToAllShapes(p)
		for _, s := range []model.Shape{short, long} {
			for _, count := range []int{0, 1, 3, 17} {
				s, count, p := s, count, p
				t.Run(fmt.Sprintf("p%d/sf%d/n%d", p, s.ShortFrom, count), func(t *testing.T) {
					runWorld(t, p, func(c Ctx) error {
						send := xSend(c.Me, p, count)
						recv := make([]byte, p*count)
						if err := c.Run(Buffers{Buf: send, Tmp: recv})(BuildAllToAll(c, s, count, 1)); err != nil {
							return err
						}
						if want := xWant(c.Me, p, count); !bytes.Equal(recv, want) {
							return fmt.Errorf("logical %d: recv %x, want %x", c.Me, recv, want)
						}
						return nil
					})
				})
			}
		}
	}
}

// TestAllToAllMultiDimShapes: any enumerated hybrid shape degrades to one
// of the two flat schedules (ShortFrom 0 → Bruck, otherwise pairwise) and
// still routes correctly — the shapes the fixed AlgShort/AlgLong policies
// hand down on meshes.
func TestAllToAllMultiDimShapes(t *testing.T) {
	const p, count = 12, 5
	for _, s := range shapesFor(group.Linear(p), 3) {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			runWorld(t, p, func(c Ctx) error {
				send := xSend(c.Me, p, count)
				recv := make([]byte, p*count)
				if err := c.Run(Buffers{Buf: send, Tmp: recv})(BuildAllToAll(c, s, count, 1)); err != nil {
					return err
				}
				if want := xWant(c.Me, p, count); !bytes.Equal(recv, want) {
					return fmt.Errorf("logical %d: wrong routing under %v", c.Me, s)
				}
				return nil
			})
		})
	}
}

// TestAllToAllvRagged: per-pair counts drawn from a shared deterministic
// matrix, including zero blocks and empty rows, route exactly.
func TestAllToAllvRagged(t *testing.T) {
	for _, p := range testPs {
		p := p
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(p) * 271))
			cnt := make([][]int, p)
			for i := range cnt {
				cnt[i] = make([]int, p)
				for j := range cnt[i] {
					cnt[i][j] = rng.Intn(5) // includes zeros
				}
			}
			runWorld(t, p, func(c Ctx) error {
				sendCounts := cnt[c.Me]
				recvCounts := make([]int, p)
				for j := 0; j < p; j++ {
					recvCounts[j] = cnt[j][c.Me]
				}
				var send []byte
				sOffs := []int{0}
				for dst := 0; dst < p; dst++ {
					send = append(send, xBlock(c.Me, dst, sendCounts[dst])...)
					sOffs = append(sOffs, len(send))
				}
				var want []byte
				for src := 0; src < p; src++ {
					want = append(want, xBlock(src, c.Me, recvCounts[src])...)
				}
				recv := make([]byte, len(want))
				if err := c.Run(Buffers{Buf: send, Tmp: recv})(BuildAllToAllv(c, sendCounts, recvCounts, 1)); err != nil {
					return err
				}
				if !bytes.Equal(recv, want) {
					return fmt.Errorf("logical %d: recv %x, want %x", c.Me, recv, want)
				}
				return nil
			})
		})
	}
}

// TestHierAllToAllPartitions: the hierarchical composition matches the
// flat result under deterministic and random cluster partitions, including
// non-contiguous and uneven ones.
func TestHierAllToAllPartitions(t *testing.T) {
	for _, p := range []int{4, 7, 12} {
		parts := map[string][]int{
			"one-giant":  make([]int, p),
			"singletons": make([]int, p),
			"blocks-3":   make([]int, p),
			"roundrobin": make([]int, p),
		}
		for r := 0; r < p; r++ {
			parts["singletons"][r] = r
			parts["blocks-3"][r] = r / 3
			parts["roundrobin"][r] = r % 3
		}
		rng := rand.New(rand.NewSource(int64(p) * 37))
		for trial := 0; trial < 3; trial++ {
			of := make([]int, p)
			k := 1 + rng.Intn(p)
			for r := range of {
				of[r] = rng.Intn(k)
			}
			parts[fmt.Sprintf("random-%d", trial)] = of
		}
		for name, of := range parts {
			cl, err := group.NewTopology(of)
			if err != nil {
				t.Fatal(err)
			}
			for _, count := range []int{0, 3, 16} {
				name, cl, count, p := name, cl, count, p
				t.Run(fmt.Sprintf("p%d/%s/n%d", p, name, count), func(t *testing.T) {
					tl := model.ClusterLike().Hierarchy()
					runWorld(t, p, func(c Ctx) error {
						c.Topology = &cl
						c.Hierarchy = &tl
						send := xSend(c.Me, p, count)
						recv := make([]byte, p*count)
						if err := c.Run(Buffers{Buf: send, Tmp: recv})(BuildAllToAll(c, model.HierShape(), count, 1)); err != nil {
							return err
						}
						if want := xWant(c.Me, p, count); !bytes.Equal(recv, want) {
							return fmt.Errorf("logical %d: wrong routing under %s", c.Me, name)
						}
						return nil
					})
				})
			}
		}
	}
}

// TestAllToAllErrors: diagnosable failures instead of crashes or hangs.
func TestAllToAllErrors(t *testing.T) {
	runWorld(t, 2, func(c Ctx) error {
		short, _ := model.AllToAllShapes(2)
		if err := c.Run(Buffers{})(BuildAllToAll(c, short, -1, 1)); err == nil {
			return fmt.Errorf("negative count accepted")
		}
		if err := c.Run(Buffers{})(BuildAllToAll(c, short, 1, 0)); err == nil {
			return fmt.Errorf("zero element size accepted")
		}
		if err := c.Run(Buffers{Buf: make([]byte, 1), Tmp: make([]byte, 16)})(BuildAllToAll(c, short, 1, 8)); err == nil {
			return fmt.Errorf("short send buffer accepted")
		}
		if err := c.Run(Buffers{Buf: make([]byte, 16), Tmp: make([]byte, 1)})(BuildAllToAll(c, short, 1, 8)); err == nil {
			return fmt.Errorf("short recv buffer accepted")
		}
		if err := c.Run(Buffers{Buf: make([]byte, 16), Tmp: make([]byte, 16)})(BuildAllToAll(c, model.HierShape(), 1, 8)); err == nil {
			return fmt.Errorf("hierarchical shape without a partition accepted")
		}
		if err := c.Run(Buffers{})(BuildAllToAllv(c, []int{1}, []int{1, 1}, 1)); err == nil {
			return fmt.Errorf("wrong sendCounts length accepted")
		}
		// Self-block mismatch on both ranks, so the failure is symmetric
		// (SPMD) and no rank is left waiting on a peer that errored out.
		if err := c.Run(Buffers{Buf: make([]byte, 4), Tmp: make([]byte, 2)})(BuildAllToAllv(c, []int{2, 2}, []int{1, 1}, 1)); err == nil {
			return fmt.Errorf("inconsistent self count accepted")
		}
		return nil
	})
}
