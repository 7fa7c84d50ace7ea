package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/chantransport"
	"repro/internal/datatype"
	"repro/internal/group"
	"repro/internal/model"
)

// runWorld executes fn as an SPMD program over an in-process channel world.
func runWorld(t *testing.T, p int, fn func(c Ctx) error) {
	t.Helper()
	w, err := chantransport.NewWorld(p, chantransport.WithRecvTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(ep *chantransport.Endpoint) error {
		return fn(NewCtx(ep, 1))
	}); err != nil {
		t.Fatal(err)
	}
}

// fill writes rank-and-index-determined bytes, so every corruption is
// attributable.
func fill(buf []byte, rank int) {
	for i := range buf {
		buf[i] = byte(rank*131 + i*7 + 3)
	}
}

// shapesFor enumerates every candidate shape (with every switch point) for
// a layout, giving exhaustive algorithm coverage for small groups.
func shapesFor(l group.Layout, maxFactors int) []model.Shape {
	var out []model.Shape
	for _, base := range model.EnumerateShapes(l, maxFactors) {
		for sf := 0; sf <= len(base.Dims); sf++ {
			out = append(out, model.Shape{Dims: base.Dims, ShortFrom: sf})
		}
	}
	return out
}

var testPs = []int{1, 2, 3, 4, 5, 7, 8, 12, 16}

// TestBcastAllShapes: broadcast delivers the root's exact bytes under every
// enumerated hybrid shape, every root, several vector lengths including
// non-divisible and empty ones.
func TestBcastAllShapes(t *testing.T) {
	for _, p := range testPs {
		l := group.Linear(p)
		for _, s := range shapesFor(l, 3) {
			for _, count := range []int{0, 1, 7, 64, 129} {
				for _, root := range []int{0, p - 1, p / 2} {
					s, count, root, p := s, count, root, p
					name := fmt.Sprintf("p%d/%v/n%d/root%d", p, s, count, root)
					t.Run(name, func(t *testing.T) {
						want := make([]byte, count)
						fill(want, root)
						runWorld(t, p, func(c Ctx) error {
							buf := make([]byte, count)
							if c.Me == root {
								copy(buf, want)
							}
							if err := c.Run(Buffers{Buf: buf})(BuildBcast(c, s, root, count, 1)); err != nil {
								return err
							}
							if !bytes.Equal(buf, want) {
								return fmt.Errorf("rank %d: wrong payload", c.Me)
							}
							return nil
						})
					})
				}
			}
		}
	}
}

// TestReduceAllShapes: combine-to-one produces the exact int64 sum under
// every shape and root.
func TestReduceAllShapes(t *testing.T) {
	for _, p := range testPs {
		l := group.Linear(p)
		for _, s := range shapesFor(l, 3) {
			for _, count := range []int{0, 1, 5, 33} {
				root := (p - 1) / 2
				s, count, p := s, count, p
				name := fmt.Sprintf("p%d/%v/n%d", p, s, count)
				t.Run(name, func(t *testing.T) {
					want := make([]int64, count)
					for r := 0; r < p; r++ {
						for i := range want {
							want[i] += int64(r*1000 + i)
						}
					}
					runWorld(t, p, func(c Ctx) error {
						in := make([]int64, count)
						for i := range in {
							in[i] = int64(c.Me*1000 + i)
						}
						buf := make([]byte, count*8)
						tmp := make([]byte, count*8)
						datatype.PutInt64s(buf, in)
						if err := c.Run(Buffers{Buf: buf, Tmp: tmp})(BuildReduce(c, s, root, count, datatype.Int64, datatype.Sum)); err != nil {
							return err
						}
						if c.Me == root {
							got := datatype.Int64s(buf)
							for i := range want {
								if got[i] != want[i] {
									return fmt.Errorf("root: elem %d = %d, want %d", i, got[i], want[i])
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

// TestAllReduceAllShapes: combine-to-all leaves the exact sum everywhere.
func TestAllReduceAllShapes(t *testing.T) {
	for _, p := range testPs {
		l := group.Linear(p)
		for _, s := range shapesFor(l, 3) {
			for _, count := range []int{0, 1, 17, 40} {
				s, count, p := s, count, p
				name := fmt.Sprintf("p%d/%v/n%d", p, s, count)
				t.Run(name, func(t *testing.T) {
					want := make([]int64, count)
					for r := 0; r < p; r++ {
						for i := range want {
							want[i] += int64(r + i*i)
						}
					}
					runWorld(t, p, func(c Ctx) error {
						in := make([]int64, count)
						for i := range in {
							in[i] = int64(c.Me + i*i)
						}
						buf := make([]byte, count*8)
						tmp := make([]byte, count*8)
						datatype.PutInt64s(buf, in)
						if err := c.Run(Buffers{Buf: buf, Tmp: tmp})(BuildAllReduce(c, s, count, datatype.Int64, datatype.Sum)); err != nil {
							return err
						}
						got := datatype.Int64s(buf)
						for i := range want {
							if got[i] != want[i] {
								return fmt.Errorf("rank %d: elem %d = %d, want %d", c.Me, i, got[i], want[i])
							}
						}
						return nil
					})
				})
			}
		}
	}
}

// TestScatterGatherCollectRS: the externally partitioned collectives under
// every shape, with equal, ragged and zero-containing counts.
func TestScatterGatherCollectRS(t *testing.T) {
	countsFor := func(p, kind int) []int {
		counts := make([]int, p)
		for i := range counts {
			switch kind {
			case 0:
				counts[i] = 4
			case 1:
				counts[i] = 1 + (i*3)%5
			default:
				counts[i] = (i % 3) * 2 // includes zeros
			}
		}
		return counts
	}
	for _, p := range testPs {
		l := group.Linear(p)
		for _, s := range shapesFor(l, 3) {
			for kind := 0; kind < 3; kind++ {
				counts := countsFor(p, kind)
				offs := prefixOffsets(counts)
				total := offs[p]
				root := p - 1
				s, p, counts, offs := s, p, counts, offs
				name := fmt.Sprintf("p%d/%v/kind%d", p, s, kind)

				t.Run("scatter/"+name, func(t *testing.T) {
					full := make([]byte, total)
					fill(full, root)
					runWorld(t, p, func(c Ctx) error {
						buf := make([]byte, total)
						if c.Me == root {
							copy(buf, full)
						}
						if err := c.Run(Buffers{Buf: buf})(BuildScatter(c, s, root, counts, 1)); err != nil {
							return err
						}
						seg := buf[offs[c.Me]:offs[c.Me+1]]
						want := full[offs[c.Me]:offs[c.Me+1]]
						if !bytes.Equal(seg, want) {
							return fmt.Errorf("rank %d: wrong segment", c.Me)
						}
						return nil
					})
				})

				t.Run("gather/"+name, func(t *testing.T) {
					want := make([]byte, total)
					for r := 0; r < p; r++ {
						fill(want[offs[r]:offs[r+1]], r)
					}
					runWorld(t, p, func(c Ctx) error {
						buf := make([]byte, total)
						fill(buf[offs[c.Me]:offs[c.Me+1]], c.Me)
						if err := c.Run(Buffers{Buf: buf})(BuildGather(c, s, root, counts, 1)); err != nil {
							return err
						}
						if c.Me == root && !bytes.Equal(buf, want) {
							return fmt.Errorf("root: wrong assembly")
						}
						return nil
					})
				})

				t.Run("collect/"+name, func(t *testing.T) {
					want := make([]byte, total)
					for r := 0; r < p; r++ {
						fill(want[offs[r]:offs[r+1]], r)
					}
					runWorld(t, p, func(c Ctx) error {
						buf := make([]byte, total)
						fill(buf[offs[c.Me]:offs[c.Me+1]], c.Me)
						if err := c.Run(Buffers{Buf: buf})(BuildCollect(c, s, counts, 1)); err != nil {
							return err
						}
						if !bytes.Equal(buf, want) {
							return fmt.Errorf("rank %d: wrong assembly", c.Me)
						}
						return nil
					})
				})

				t.Run("reducescatter/"+name, func(t *testing.T) {
					// int32 elements; counts are element counts.
					want := make([]int32, total)
					for r := 0; r < p; r++ {
						for i := range want {
							want[i] += int32(r*7 + i)
						}
					}
					runWorld(t, p, func(c Ctx) error {
						in := make([]int32, total)
						for i := range in {
							in[i] = int32(c.Me*7 + i)
						}
						buf := make([]byte, total*4)
						tmp := make([]byte, total*4)
						datatype.PutInt32s(buf, in)
						if err := c.Run(Buffers{Buf: buf, Tmp: tmp})(BuildReduceScatter(c, s, counts, datatype.Int32, datatype.Sum)); err != nil {
							return err
						}
						got := datatype.Int32s(buf[offs[c.Me]*4 : offs[c.Me+1]*4])
						for i, w := range want[offs[c.Me]:offs[c.Me+1]] {
							if got[i] != w {
								return fmt.Errorf("rank %d: elem %d = %d, want %d", c.Me, i, got[i], w)
							}
						}
						return nil
					})
				})
			}
		}
	}
}

// TestMeshShapesCorrect runs the collectives under 2-D physical-mesh shapes
// (whole rows/columns conflict-free), checking the different stride
// structure is handled.
func TestMeshShapesCorrect(t *testing.T) {
	meshes := [][2]int{{2, 3}, {3, 4}, {4, 4}, {3, 5}}
	for _, rc := range meshes {
		l := group.Mesh2D(rc[0], rc[1])
		p := l.P()
		for _, s := range shapesFor(l, 2) {
			const count = 24
			s := s
			t.Run(fmt.Sprintf("%dx%d/%v", rc[0], rc[1], s), func(t *testing.T) {
				// Broadcast + all-reduce exercise internal partitions;
				// collect exercises external ones.
				runWorld(t, p, func(c Ctx) error {
					buf := make([]byte, count)
					want := make([]byte, count)
					fill(want, 2)
					if c.Me == 2 {
						copy(buf, want)
					}
					if err := c.Run(Buffers{Buf: buf})(BuildBcast(c, s, 2, count, 1)); err != nil {
						return err
					}
					if !bytes.Equal(buf, want) {
						return fmt.Errorf("rank %d: bcast wrong", c.Me)
					}

					in := make([]int64, 10)
					for i := range in {
						in[i] = int64(c.Me + i)
					}
					ab := make([]byte, 80)
					tb := make([]byte, 80)
					datatype.PutInt64s(ab, in)
					if err := c.Run(Buffers{Buf: ab, Tmp: tb})(BuildAllReduce(c, s, 10, datatype.Int64, datatype.Sum)); err != nil {
						return err
					}
					got := datatype.Int64s(ab)
					for i := range got {
						want := int64(0)
						for r := 0; r < p; r++ {
							want += int64(r + i)
						}
						if got[i] != want {
							return fmt.Errorf("rank %d: allreduce elem %d = %d, want %d", c.Me, i, got[i], want)
						}
					}

					counts := equalCounts(31, p)
					offs := prefixOffsets(counts)
					cb := make([]byte, offs[p])
					fill(cb[offs[c.Me]:offs[c.Me+1]], c.Me)
					if err := c.Run(Buffers{Buf: cb})(BuildCollect(c, s, counts, 1)); err != nil {
						return err
					}
					for r := 0; r < p; r++ {
						w := make([]byte, counts[r])
						fill(w, r)
						if !bytes.Equal(cb[offs[r]:offs[r+1]], w) {
							return fmt.Errorf("rank %d: collect segment %d wrong", c.Me, r)
						}
					}
					return nil
				})
			})
		}
	}
}

// TestGroupCollectives runs collectives on subgroups of a world — rows,
// columns, strided and scattered member lists — concurrently in disjoint
// groups, the §9 scenario.
func TestGroupCollectives(t *testing.T) {
	const world = 12
	groupsOf := func(me int) []int {
		switch {
		case me%3 == 0:
			return []int{0, 3, 6, 9}
		case me%3 == 1:
			return []int{1, 4, 7, 10}
		default:
			return []int{2, 5, 8, 11}
		}
	}
	runWorld(t, world, func(c Ctx) error {
		members := groupsOf(c.Me)
		me := group.Index(members, c.EP.Rank())
		g := Ctx{EP: c.EP, Members: members, Me: me, Coll: 9}
		s := model.MSTShape(group.Linear(len(members)))

		buf := make([]byte, 16)
		want := make([]byte, 16)
		fill(want, members[0])
		if me == 0 {
			copy(buf, want)
		}
		if err := g.Run(Buffers{Buf: buf})(BuildBcast(g, s, 0, 16, 1)); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: group bcast wrong", c.EP.Rank())
		}

		long := model.BucketShape(group.Linear(len(members)))
		in := make([]int64, 6)
		for i := range in {
			in[i] = int64(c.EP.Rank()*10 + i)
		}
		ab := make([]byte, 48)
		tb := make([]byte, 48)
		datatype.PutInt64s(ab, in)
		if err := g.Run(Buffers{Buf: ab, Tmp: tb})(BuildAllReduce(g, long, 6, datatype.Int64, datatype.Sum)); err != nil {
			return err
		}
		got := datatype.Int64s(ab)
		for i := range got {
			var w int64
			for _, m := range members {
				w += int64(m*10 + i)
			}
			if got[i] != w {
				return fmt.Errorf("rank %d: group allreduce elem %d = %d, want %d", c.EP.Rank(), i, got[i], w)
			}
		}
		return nil
	})
}

// TestAllOpsAllTypes exercises every datatype/op pair through an
// all-reduce on a shape with both long and short stages.
func TestAllOpsAllTypes(t *testing.T) {
	const p, count = 6, 9
	l := group.Linear(p)
	s := model.Shape{Dims: model.EnumerateShapes(l, 2)[1].Dims, ShortFrom: 1} // a 2-dim hybrid
	for _, dt := range datatype.Types() {
		for _, op := range datatype.Ops() {
			dt, op := dt, op
			t.Run(fmt.Sprintf("%v/%v", dt, op), func(t *testing.T) {
				es := dt.Size()
				// Build per-rank inputs with small positive values so that
				// products stay in range for every type.
				input := func(r, i int) float64 { return float64(1 + (r+i)%3) }
				encode := func(buf []byte, r int) {
					for i := 0; i < count; i++ {
						v := input(r, i)
						switch dt {
						case datatype.Uint8:
							buf[i] = byte(v)
						case datatype.Int32:
							datatype.PutInt32s(buf[4*i:4*i+4], []int32{int32(v)})
						case datatype.Int64:
							datatype.PutInt64s(buf[8*i:8*i+8], []int64{int64(v)})
						case datatype.Float32:
							datatype.PutFloat32s(buf[4*i:4*i+4], []float32{float32(v)})
						case datatype.Float64:
							datatype.PutFloat64s(buf[8*i:8*i+8], []float64{v})
						}
					}
				}
				decode := func(buf []byte, i int) float64 {
					switch dt {
					case datatype.Uint8:
						return float64(buf[i])
					case datatype.Int32:
						return float64(datatype.Int32s(buf[4*i : 4*i+4])[0])
					case datatype.Int64:
						return float64(datatype.Int64s(buf[8*i : 8*i+8])[0])
					case datatype.Float32:
						return float64(datatype.Float32s(buf[4*i : 4*i+4])[0])
					default:
						return datatype.Float64s(buf[8*i : 8*i+8])[0]
					}
				}
				combine := func(a, b float64) float64 {
					switch op {
					case datatype.Sum:
						return a + b
					case datatype.Prod:
						return a * b
					case datatype.Max:
						return math.Max(a, b)
					default:
						return math.Min(a, b)
					}
				}
				runWorld(t, p, func(c Ctx) error {
					buf := make([]byte, count*es)
					tmp := make([]byte, count*es)
					encode(buf, c.Me)
					if err := c.Run(Buffers{Buf: buf, Tmp: tmp})(BuildAllReduce(c, s, count, dt, op)); err != nil {
						return err
					}
					for i := 0; i < count; i++ {
						want := input(0, i)
						for r := 1; r < p; r++ {
							want = combine(want, input(r, i))
						}
						if got := decode(buf, i); math.Abs(got-want) > 1e-6 {
							return fmt.Errorf("rank %d: elem %d = %v, want %v", c.Me, i, got, want)
						}
					}
					return nil
				})
			})
		}
	}
}

// TestValidation exercises the argument checking paths.
func TestValidation(t *testing.T) {
	runWorld(t, 2, func(c Ctx) error {
		s := model.MSTShape(group.Linear(2))
		if err := c.Run(Buffers{Buf: make([]byte, 4)})(BuildBcast(c, s, 5, 4, 1)); err == nil {
			return fmt.Errorf("bad root accepted")
		}
		if err := c.Run(Buffers{Buf: make([]byte, 1)})(BuildBcast(c, s, 0, 4, 1)); err == nil {
			return fmt.Errorf("short buffer accepted")
		}
		bad := model.Shape{Dims: []model.Dim{{Size: 3, Stride: 1, Conflict: 1}}}
		if err := c.Run(Buffers{Buf: make([]byte, 4)})(BuildBcast(c, bad, 0, 4, 1)); err == nil {
			return fmt.Errorf("mismatched shape accepted")
		}
		if err := c.Run(Buffers{Buf: make([]byte, 8)})(BuildScatter(c, s, 0, []int{4}, 1)); err == nil {
			return fmt.Errorf("short counts accepted")
		}
		if err := c.Run(Buffers{Buf: make([]byte, 8)})(BuildScatter(c, s, 0, []int{4, -1}, 1)); err == nil {
			return fmt.Errorf("negative count accepted")
		}
		// p=1 group degenerate cases must all work.
		solo := Ctx{EP: c.EP, Members: []int{c.EP.Rank()}, Me: 0, Coll: 3}
		s1 := model.MSTShape(group.Linear(1))
		buf := []byte{1, 2, 3, 4}
		if err := solo.Run(Buffers{Buf: buf})(BuildBcast(solo, s1, 0, 4, 1)); err != nil {
			return fmt.Errorf("p=1 bcast: %w", err)
		}
		tmp := make([]byte, 4)
		if err := solo.Run(Buffers{Buf: buf, Tmp: tmp})(BuildAllReduce(solo, s1, 1, datatype.Int32, datatype.Sum)); err != nil {
			return fmt.Errorf("p=1 allreduce: %w", err)
		}
		return nil
	})
}
