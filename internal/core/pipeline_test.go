package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/group"
	"repro/internal/model"
)

// TestPipelinedBcastCorrect: the ring pipeline delivers the root's bytes
// for various group sizes, roots and block counts, including blocks >
// count and count = 0.
func TestPipelinedBcastCorrect(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		for _, blocks := range []int{1, 2, 7, 100} {
			for _, count := range []int{0, 1, 13, 64} {
				root := p / 2
				p, blocks, count := p, blocks, count
				t.Run(fmt.Sprintf("p%d/k%d/n%d", p, blocks, count), func(t *testing.T) {
					want := make([]byte, count)
					fill(want, root)
					runWorld(t, p, func(c Ctx) error {
						buf := make([]byte, count)
						if c.Me == root {
							copy(buf, want)
						}
						if err := c.Run(Buffers{Buf: buf})(BuildPipelinedBcast(c, root, count, 1, blocks)); err != nil {
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

// TestPipelinedBcastTiming: simulated time matches the model
// (p-2+K)(α+δ+(n/K)β) when blocks divide evenly.
func TestPipelinedBcastTiming(t *testing.T) {
	m := plainMachine()
	const p, blocks = 8, 4
	n := blocks * 100
	got := simT(t, 1, p, m, false, func(c Ctx) error {
		return c.Run(Buffers{})(BuildPipelinedBcast(c, 0, n, 1, blocks))
	})
	want := PipelinedBcastCost(m, p, n, blocks)
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("pipelined bcast: sim %.6g, model %.6g", got, want)
	}
}

// TestPipelinedAsymptotics: for long vectors the pipelined broadcast beats
// scatter/collect in a quiet simulation (§8's factor-two claim, here
// bounded by pipeline fill).
func TestPipelinedAsymptotics(t *testing.T) {
	m := model.ParagonLike()
	const p = 16
	n := 8 << 20
	blocks := OptimalBlocks(m, p, n)
	if blocks < 2 {
		t.Fatalf("optimal blocks = %d", blocks)
	}
	pipe := simT(t, 1, p, m, false, func(c Ctx) error {
		return c.Run(Buffers{})(BuildPipelinedBcast(c, 0, n, 1, blocks))
	})
	sc := simT(t, 1, p, m, false, func(c Ctx) error {
		return c.Run(Buffers{})(BuildBcast(c, model.BucketShape(group.Linear(p)), 0, n, 1))
	})
	if pipe >= sc {
		t.Errorf("8MB: pipelined %.4g should beat scatter/collect %.4g", pipe, sc)
	}
	if ratio := sc / pipe; ratio > 2.05 {
		t.Errorf("speedup %.2f exceeds the theoretical factor two", ratio)
	}
}

// TestPipelinedValidation: misuse is rejected.
func TestPipelinedValidation(t *testing.T) {
	runWorld(t, 2, func(c Ctx) error {
		if err := c.Run(Buffers{})(BuildPipelinedBcast(c, 0, 4, 1, 0)); err == nil {
			return fmt.Errorf("0 blocks accepted")
		}
		if err := c.Run(Buffers{})(BuildPipelinedBcast(c, 9, 4, 1, 1)); err == nil {
			return fmt.Errorf("bad root accepted")
		}
		return nil
	})
}

// TestOptimalBlocks: the block chooser is sane.
func TestOptimalBlocks(t *testing.T) {
	m := model.ParagonLike()
	if k := OptimalBlocks(m, 2, 1<<20); k != 1 {
		t.Errorf("p=2: %d blocks, want 1 (no interior nodes)", k)
	}
	if k := OptimalBlocks(m, 16, 0); k != 1 {
		t.Errorf("n=0: %d blocks", k)
	}
	k1 := OptimalBlocks(m, 16, 1<<20)
	k2 := OptimalBlocks(m, 16, 16<<20)
	if k2 <= k1 {
		t.Errorf("blocks should grow with n: %d then %d", k1, k2)
	}
	if k := OptimalBlocks(m, 1024, 1<<30); k != 4096 {
		t.Errorf("cap: %d, want 4096", k)
	}
}
