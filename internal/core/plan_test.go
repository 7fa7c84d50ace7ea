package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/datatype"
	"repro/internal/group"
	"repro/internal/model"
)

// execPlan runs a plan on buf and tmp.
func execPlan(c Ctx, pl *Plan, buf, tmp []byte) error {
	return c.Run(Buffers{Buf: buf, Tmp: tmp})(pl, nil)
}

// TestPlanBcastMatchesDirect: a recorded broadcast plan, replayed twice,
// delivers the root's exact bytes both times under every enumerated shape.
func TestPlanBcastMatchesDirect(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		l := group.Linear(p)
		for _, s := range shapesFor(l, 3) {
			for _, count := range []int{0, 1, 63} {
				s, count, p := s, count, p
				root := p / 2
				t.Run(fmt.Sprintf("p%d/%v/n%d", p, s, count), func(t *testing.T) {
					want := make([]byte, count)
					fill(want, root)
					runWorld(t, p, func(c Ctx) error {
						pl, err := BuildBcast(c, s, root, count, 1)
						if err != nil {
							return err
						}
						for rep := 0; rep < 2; rep++ {
							buf := make([]byte, count)
							if c.Me == root {
								copy(buf, want)
							}
							if err := execPlan(c, pl, buf, nil); err != nil {
								return err
							}
							if !bytes.Equal(buf, want) {
								return fmt.Errorf("rank %d rep %d: wrong payload", c.Me, rep)
							}
						}
						return nil
					})
				})
			}
		}
	}
}

// TestPlanAllReduceMatchesDirect: a recorded all-reduce plan replays to the
// exact int64 sum on every rank under every shape, twice per plan.
func TestPlanAllReduceMatchesDirect(t *testing.T) {
	for _, p := range []int{1, 2, 4, 5, 8} {
		l := group.Linear(p)
		for _, s := range shapesFor(l, 3) {
			for _, count := range []int{0, 1, 17} {
				s, count, p := s, count, p
				t.Run(fmt.Sprintf("p%d/%v/n%d", p, s, count), func(t *testing.T) {
					want := make([]int64, count)
					for r := 0; r < p; r++ {
						for i := range want {
							want[i] += int64(r*1000 + i)
						}
					}
					runWorld(t, p, func(c Ctx) error {
						pl, err := BuildAllReduce(c, s, count, datatype.Int64, datatype.Sum)
						if err != nil {
							return err
						}
						for rep := 0; rep < 2; rep++ {
							in := make([]int64, count)
							for i := range in {
								in[i] = int64(c.Me*1000 + i)
							}
							buf := make([]byte, count*8)
							tmp := make([]byte, count*8)
							datatype.PutInt64s(buf, in)
							if err := execPlan(c, pl, buf, tmp); err != nil {
								return err
							}
							got := datatype.Int64s(buf)
							for i := range want {
								if got[i] != want[i] {
									return fmt.Errorf("rank %d rep %d: elem %d = %d, want %d", c.Me, rep, i, got[i], want[i])
								}
							}
						}
						return nil
					})
				})
			}
		}
	}
}

// TestPlanRootedAndPartitioned: recorded reduce, scatter, gather, collect
// and reduce-scatter plans replay to the same results as Table 1 demands,
// with uneven counts.
func TestPlanRootedAndPartitioned(t *testing.T) {
	const p = 6
	l := group.Linear(p)
	counts := []int{3, 0, 5, 1, 4, 2}
	offs := make([]int, p+1)
	for i, n := range counts {
		offs[i+1] = offs[i] + n
	}
	total := offs[p]
	full := make([]byte, total)
	fill(full, 7)
	root := 2
	for _, s := range shapesFor(l, 2) {
		s := s
		t.Run(fmt.Sprintf("%v", s), func(t *testing.T) {
			runWorld(t, p, func(c Ctx) error {
				// Reduce: sum of per-rank contributions lands at root.
				plR, err := BuildReduce(c, s, root, 9, datatype.Int32, datatype.Sum)
				if err != nil {
					return err
				}
				in := make([]int32, 9)
				for i := range in {
					in[i] = int32(c.Me + i)
				}
				buf := make([]byte, 9*4)
				datatype.PutInt32s(buf, in)
				if err := execPlan(c, plR, buf, make([]byte, 9*4)); err != nil {
					return err
				}
				if c.Me == root {
					got := datatype.Int32s(buf)
					for i := range got {
						want := int32(p*i + p*(p-1)/2)
						if got[i] != want {
							return fmt.Errorf("reduce elem %d = %d, want %d", i, got[i], want)
						}
					}
				}

				// Scatter: each rank ends with its segment of root's vector.
				plS, err := BuildScatter(c, s, root, counts, 1)
				if err != nil {
					return err
				}
				vec := make([]byte, total)
				if c.Me == root {
					copy(vec, full)
				}
				if err := execPlan(c, plS, vec, nil); err != nil {
					return err
				}
				if !bytes.Equal(vec[offs[c.Me]:offs[c.Me+1]], full[offs[c.Me]:offs[c.Me+1]]) {
					return fmt.Errorf("rank %d: scatter segment wrong", c.Me)
				}

				// Gather: root assembles every segment.
				plG, err := BuildGather(c, s, root, counts, 1)
				if err != nil {
					return err
				}
				gv := make([]byte, total)
				copy(gv[offs[c.Me]:offs[c.Me+1]], full[offs[c.Me]:offs[c.Me+1]])
				if err := execPlan(c, plG, gv, nil); err != nil {
					return err
				}
				if c.Me == root && !bytes.Equal(gv, full) {
					return fmt.Errorf("gather: wrong vector at root")
				}

				// Collect: everyone assembles every segment.
				plC, err := BuildCollect(c, s, counts, 1)
				if err != nil {
					return err
				}
				cv := make([]byte, total)
				copy(cv[offs[c.Me]:offs[c.Me+1]], full[offs[c.Me]:offs[c.Me+1]])
				if err := execPlan(c, plC, cv, nil); err != nil {
					return err
				}
				if !bytes.Equal(cv, full) {
					return fmt.Errorf("rank %d: collect wrong", c.Me)
				}

				// ReduceScatter: own segment holds the sum.
				plRS, err := BuildReduceScatter(c, s, counts, datatype.Uint8, datatype.Sum)
				if err != nil {
					return err
				}
				rv := make([]byte, total)
				for i := range rv {
					rv[i] = byte(c.Me + i)
				}
				if err := execPlan(c, plRS, rv, make([]byte, total)); err != nil {
					return err
				}
				for i := offs[c.Me]; i < offs[c.Me+1]; i++ {
					want := byte(p*i + p*(p-1)/2)
					if rv[i] != want {
						return fmt.Errorf("rank %d: reduce-scatter byte %d = %d, want %d", c.Me, i, rv[i], want)
					}
				}
				return nil
			})
		})
	}
}

// TestPlanAllToAll: recorded complete-exchange plans (both the Bruck relay
// and the pairwise schedule) replay to the transposed block layout.
func TestPlanAllToAll(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		for _, shortFrom := range []int{0, 1} {
			p, shortFrom := p, shortFrom
			const count = 5
			t.Run(fmt.Sprintf("p%d/sf%d", p, shortFrom), func(t *testing.T) {
				runWorld(t, p, func(c Ctx) error {
					s := linShape(p, shortFrom)
					pl, err := BuildAllToAll(c, s, count, 1)
					if err != nil {
						return err
					}
					send := make([]byte, p*count)
					for j := 0; j < p; j++ {
						for i := 0; i < count; i++ {
							send[j*count+i] = byte(c.Me*31 + j*7 + i)
						}
					}
					recv := make([]byte, p*count)
					if err := execPlan(c, pl, send, recv); err != nil {
						return err
					}
					for j := 0; j < p; j++ {
						for i := 0; i < count; i++ {
							if want := byte(j*31 + c.Me*7 + i); recv[j*count+i] != want {
								return fmt.Errorf("rank %d: block %d byte %d = %d, want %d", c.Me, j, i, recv[j*count+i], want)
							}
						}
					}
					return nil
				})
			})
		}
	}
}

// TestPlanHier: plans recorded through the hierarchical composition — with
// a non-contiguous cluster partition, exercising the packed leader phase —
// replay correctly for all-reduce, collect and all-to-all.
func TestPlanHier(t *testing.T) {
	const p = 6
	cl, err := group.NewTopology([]int{0, 1, 0, 1, 0, 1}) // interleaved: non-contiguous
	if err != nil {
		t.Fatal(err)
	}
	hs := model.HierShape()
	counts := []int{2, 3, 1, 4, 2, 3}
	offs := make([]int, p+1)
	for i, n := range counts {
		offs[i+1] = offs[i] + n
	}
	total := offs[p]
	full := make([]byte, total)
	fill(full, 5)
	runWorld(t, p, func(c Ctx) error {
		c.Topology = &cl

		plA, err := BuildAllReduce(c, hs, 4, datatype.Int32, datatype.Sum)
		if err != nil {
			return err
		}
		buf := make([]byte, 16)
		datatype.PutInt32s(buf, []int32{int32(c.Me), 1, 2, int32(2 * c.Me)})
		if err := execPlan(c, plA, buf, make([]byte, 16)); err != nil {
			return err
		}
		got := datatype.Int32s(buf)
		sumMe := int32(p * (p - 1) / 2)
		for i, want := range []int32{sumMe, p, 2 * p, 2 * sumMe} {
			if got[i] != want {
				return fmt.Errorf("rank %d: hier all-reduce elem %d = %d, want %d", c.Me, i, got[i], want)
			}
		}

		plC, err := BuildCollect(c, hs, counts, 1)
		if err != nil {
			return err
		}
		cv := make([]byte, total)
		copy(cv[offs[c.Me]:offs[c.Me+1]], full[offs[c.Me]:offs[c.Me+1]])
		if err := execPlan(c, plC, cv, nil); err != nil {
			return err
		}
		if !bytes.Equal(cv, full) {
			return fmt.Errorf("rank %d: hier collect wrong", c.Me)
		}

		plX, err := BuildAllToAll(c, hs, 3, 1)
		if err != nil {
			return err
		}
		send := make([]byte, p*3)
		for j := 0; j < p; j++ {
			for i := 0; i < 3; i++ {
				send[j*3+i] = byte(c.Me*13 + j*5 + i)
			}
		}
		recv := make([]byte, p*3)
		if err := execPlan(c, plX, send, recv); err != nil {
			return err
		}
		for j := 0; j < p; j++ {
			for i := 0; i < 3; i++ {
				if want := byte(j*13 + c.Me*5 + i); recv[j*3+i] != want {
					return fmt.Errorf("rank %d: hier all-to-all block %d byte %d wrong", c.Me, j, i)
				}
			}
		}
		return nil
	})
}

// TestPlanValidation: plan construction rejects bad arguments.
func TestPlanValidation(t *testing.T) {
	runWorld(t, 3, func(c Ctx) error {
		s := linShape(3, 0)
		if _, err := BuildBcast(c, s, 5, 4, 1); err == nil {
			return fmt.Errorf("bad root accepted")
		}
		if _, err := BuildBcast(c, s, 0, -1, 1); err == nil {
			return fmt.Errorf("negative count accepted")
		}
		if _, err := BuildAllReduce(c, s, -7, datatype.Int32, datatype.Sum); err == nil {
			return fmt.Errorf("negative count accepted")
		}
		if _, err := BuildScatter(c, s, 0, []int{1, -2, 3}, 1); err == nil {
			return fmt.Errorf("negative counts accepted")
		}
		if _, err := BuildCollect(c, s, []int{1, 2}, 1); err == nil {
			return fmt.Errorf("short counts accepted")
		}
		return nil
	})
}

// TestPlanBufferCheck: Execute rejects undersized buffer spaces on a
// data-carrying transport instead of panicking.
func TestPlanBufferCheck(t *testing.T) {
	runWorld(t, 2, func(c Ctx) error {
		pl, err := BuildAllReduce(c, linShape(2, 0), 8, datatype.Int64, datatype.Sum)
		if err != nil {
			return err
		}
		err = pl.Execute(c.EP, nil, Buffers{Buf: make([]byte, 3), Tmp: make([]byte, 64)})
		if err == nil {
			return fmt.Errorf("short Buf accepted")
		}
		// Ranks diverge here by design (both error before any send).
		return nil
	})
}
