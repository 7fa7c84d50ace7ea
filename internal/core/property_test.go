package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datatype"
	"repro/internal/group"
	"repro/internal/model"
)

// Property-based tests (testing/quick) over randomized group sizes,
// shapes, partitions and payloads. Each property is an algebraic identity
// among Table 1 operations that must hold for any correct implementation.

// scenario is a randomly drawn test configuration.
type scenario struct {
	p      int
	shape  model.Shape
	root   int
	counts []int
}

func drawScenario(r *rand.Rand) scenario {
	p := 1 + r.Intn(10)
	shapes := shapesFor(group.Linear(p), 3)
	s := shapes[r.Intn(len(shapes))]
	counts := make([]int, p)
	for i := range counts {
		counts[i] = r.Intn(6)
	}
	return scenario{p: p, shape: s, root: r.Intn(p), counts: counts}
}

func quickCfg() *quick.Config {
	return &quick.Config{
		MaxCount: 40,
		Values:   nil,
	}
}

// TestPropScatterGatherIdentity: gather ∘ scatter = identity on the root's
// vector, for random shapes and ragged counts.
func TestPropScatterGatherIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		sc := drawScenario(r)
		offs := prefixOffsets(sc.counts)
		total := offs[sc.p]
		orig := make([]byte, total)
		r.Read(orig)
		ok := true
		runWorld(t, sc.p, func(c Ctx) error {
			buf := make([]byte, total)
			if c.Me == sc.root {
				copy(buf, orig)
			}
			if err := c.Run(Buffers{Buf: buf})(BuildScatter(c, sc.shape, sc.root, sc.counts, 1)); err != nil {
				return err
			}
			// Zero everything but my segment, then gather back.
			seg := append([]byte(nil), buf[offs[c.Me]:offs[c.Me+1]]...)
			for i := range buf {
				buf[i] = 0
			}
			copy(buf[offs[c.Me]:offs[c.Me+1]], seg)
			if err := c.Run(Buffers{Buf: buf})(BuildGather(c, sc.shape, sc.root, sc.counts, 1)); err != nil {
				return err
			}
			if c.Me == sc.root && !bytes.Equal(buf, orig) {
				ok = false
			}
			return nil
		})
		if !ok {
			t.Fatalf("scatter∘gather != id for %+v", sc)
		}
	}
}

// TestPropReduceScatterPlusCollectIsAllReduce: the long all-reduce
// identity of §5.2 holds elementwise exactly on int64.
func TestPropReduceScatterPlusCollectIsAllReduce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 40; iter++ {
		sc := drawScenario(r)
		offs := prefixOffsets(sc.counts)
		total := offs[sc.p] // elements (int64)
		inputs := make([][]int64, sc.p)
		for i := range inputs {
			inputs[i] = make([]int64, total)
			for j := range inputs[i] {
				inputs[i][j] = int64(r.Intn(1000) - 500)
			}
		}
		runWorld(t, sc.p, func(c Ctx) error {
			// Path A: reduce-scatter then collect.
			bufA := make([]byte, total*8)
			tmp := make([]byte, total*8)
			datatype.PutInt64s(bufA, inputs[c.Me])
			if err := c.Run(Buffers{Buf: bufA, Tmp: tmp})(BuildReduceScatter(c, sc.shape, sc.counts, datatype.Int64, datatype.Sum)); err != nil {
				return err
			}
			if err := c.Run(Buffers{Buf: bufA})(BuildCollect(c, sc.shape, sc.counts, 8)); err != nil {
				return err
			}
			// Path B: all-reduce.
			bufB := make([]byte, total*8)
			datatype.PutInt64s(bufB, inputs[c.Me])
			if err := c.Run(Buffers{Buf: bufB, Tmp: tmp})(BuildAllReduce(c, sc.shape, total, datatype.Int64, datatype.Sum)); err != nil {
				return err
			}
			if !bytes.Equal(bufA, bufB) {
				return fmt.Errorf("rank %d: reduce-scatter+collect != all-reduce (%+v)", c.Me, sc)
			}
			return nil
		})
	}
}

// TestPropCollectEqualsGatherBcast: §5.1's identity — a collect delivers
// exactly what a gather followed by a broadcast does.
func TestPropCollectEqualsGatherBcast(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for iter := 0; iter < 40; iter++ {
		sc := drawScenario(r)
		offs := prefixOffsets(sc.counts)
		total := offs[sc.p]
		segs := make([][]byte, sc.p)
		for i := range segs {
			segs[i] = make([]byte, sc.counts[i])
			r.Read(segs[i])
		}
		runWorld(t, sc.p, func(c Ctx) error {
			bufA := make([]byte, total)
			copy(bufA[offs[c.Me]:offs[c.Me+1]], segs[c.Me])
			if err := c.Run(Buffers{Buf: bufA})(BuildCollect(c, sc.shape, sc.counts, 1)); err != nil {
				return err
			}
			bufB := make([]byte, total)
			copy(bufB[offs[c.Me]:offs[c.Me+1]], segs[c.Me])
			if err := c.Run(Buffers{Buf: bufB})(BuildGather(c, sc.shape, sc.root, sc.counts, 1)); err != nil {
				return err
			}
			if err := c.Run(Buffers{Buf: bufB})(BuildBcast(c, sc.shape, sc.root, total, 1)); err != nil {
				return err
			}
			if !bytes.Equal(bufA, bufB) {
				return fmt.Errorf("rank %d: collect != gather+bcast (%+v)", c.Me, sc)
			}
			return nil
		})
	}
}

// TestPropBcastFromEveryRootAgrees: whatever hybrid is used, a broadcast
// from root r delivers r's bytes — quick over shapes × roots.
func TestPropBcastFromEveryRootAgrees(t *testing.T) {
	err := quick.Check(func(seed int64, rawN uint8) bool {
		r := rand.New(rand.NewSource(seed))
		sc := drawScenario(r)
		n := int(rawN) % 40
		want := make([]byte, n)
		r.Read(want)
		good := true
		runWorld(t, sc.p, func(c Ctx) error {
			buf := make([]byte, n)
			if c.Me == sc.root {
				copy(buf, want)
			}
			if err := c.Run(Buffers{Buf: buf})(BuildBcast(c, sc.shape, sc.root, n, 1)); err != nil {
				return err
			}
			if !bytes.Equal(buf, want) {
				good = false
			}
			return nil
		})
		return good
	}, quickCfg())
	if err != nil {
		t.Error(err)
	}
}

// TestPropReduceMatchesAllReduce: the root's reduce result equals the
// all-reduce result (int64 sum, exact).
func TestPropReduceMatchesAllReduce(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for iter := 0; iter < 40; iter++ {
		sc := drawScenario(r)
		count := r.Intn(30)
		inputs := make([][]int64, sc.p)
		for i := range inputs {
			inputs[i] = make([]int64, count)
			for j := range inputs[i] {
				inputs[i][j] = int64(r.Intn(2000) - 1000)
			}
		}
		runWorld(t, sc.p, func(c Ctx) error {
			bufA := make([]byte, count*8)
			bufB := make([]byte, count*8)
			tmp := make([]byte, count*8)
			datatype.PutInt64s(bufA, inputs[c.Me])
			datatype.PutInt64s(bufB, inputs[c.Me])
			if err := c.Run(Buffers{Buf: bufA, Tmp: tmp})(BuildReduce(c, sc.shape, sc.root, count, datatype.Int64, datatype.Sum)); err != nil {
				return err
			}
			if err := c.Run(Buffers{Buf: bufB, Tmp: tmp})(BuildAllReduce(c, sc.shape, count, datatype.Int64, datatype.Sum)); err != nil {
				return err
			}
			if c.Me == sc.root && !bytes.Equal(bufA, bufB) {
				return fmt.Errorf("reduce != all-reduce at root (%+v)", sc)
			}
			return nil
		})
	}
}

// TestPropPartitionInvariants: splitPart tiles the range exactly for any
// inputs (pure property, no communication).
func TestPropPartitionInvariants(t *testing.T) {
	err := quick.Check(func(rawN uint16, rawD uint8) bool {
		n := int(rawN) % 5000
		d := 1 + int(rawD)%64
		prev := 0
		totalLen := 0
		for i := 0; i < d; i++ {
			lo, hi := splitPart(0, n, d, i)
			if lo != prev || hi < lo {
				return false
			}
			if (hi-lo) < n/d || (hi-lo) > n/d+1 {
				return false // near-equal
			}
			totalLen += hi - lo
			prev = hi
		}
		return prev == n && totalLen == n
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
