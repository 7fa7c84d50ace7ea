package core

import (
	"fmt"
	"math"

	"repro/internal/datatype"
	"repro/internal/model"
)

// Pipelined broadcast (§8, van de Geijn & Watts [15]). The group is viewed
// as a ring starting at the root; the vector is cut into blocks that flow
// down the ring, every interior node forwarding block b while receiving
// block b+1. With K blocks the time is ≈ (p-2+K)(α + (n/K)β), which for
// long vectors approaches nβ — twice as fast as the scatter/collect
// broadcast's 2((p-1)/p)nβ.
//
// The paper's §8 explains why this algorithm is *not* the library default:
// it is "more susceptible to timing irregularities resulting from the more
// complex operating systems of current generation machines" — every block
// hop sits on the critical path, so per-message jitter accumulates K+p
// times. The ablation in internal/harness reproduces exactly that: with
// latency noise injected, the simpler scatter/collect broadcast wins.

// BuildPipelinedBcast builds the broadcast of count elements of size es
// from root through a ring pipeline of blocks. blocks must be ≥ 1; use
// OptimalBlocks for the model-optimal count. Buf is the vector.
func BuildPipelinedBcast(c Ctx, root, count, es, blocks int) (*Plan, error) {
	e, err := c.begin()
	if err != nil {
		return nil, err
	}
	p := e.p()
	if err := checkRoot(root, p); err != nil {
		return nil, err
	}
	if err := checkCountES(count, es); err != nil {
		return nil, err
	}
	if blocks < 1 {
		return nil, fmt.Errorf("core: pipelined broadcast with %d blocks", blocks)
	}
	blocks = max(1, min(blocks, count))
	buf, _ := vectors(count * es)
	blk := func(b int) span {
		lo, hi := splitPart(0, count, blocks, b)
		return buf.sub(lo*es, hi*es)
	}
	// Ring position relative to the root.
	q := (e.me - root + p) % p
	succ := (e.me + 1) % p
	pred := (e.me - 1 + p) % p
	const phase = 0
	switch {
	case p == 1:
	case q == 0: // root: stream all blocks to the successor
		for b := 0; b < blocks; b++ {
			e.send(succ, e.tag(phase, b), blk(b))
		}
	case q == p-1: // tail: sink all blocks
		for b := 0; b < blocks; b++ {
			e.recv(pred, e.tag(phase, b), blk(b))
		}
	default: // interior: forward block b-1 while receiving block b
		e.recv(pred, e.tag(phase, 0), blk(0))
		for b := 1; b < blocks; b++ {
			e.sendRecv(succ, e.tag(phase, b-1), blk(b-1), pred, e.tag(phase, b), blk(b))
		}
		e.send(succ, e.tag(phase, blocks-1), blk(blocks-1))
	}
	return e.out.finish(buf.n, datatype.Uint8, datatype.Sum), nil
}

// OptimalBlocks returns the block count minimizing the pipelined
// broadcast's modelled time (p-2+K)(α + nβ/K): K* = √((p-2)nβ/α),
// clamped to [1, 4096].
func OptimalBlocks(m model.Machine, p, nBytes int) int {
	if p < 3 || nBytes == 0 || m.Alpha <= 0 {
		return 1
	}
	k := int(math.Round(math.Sqrt(float64(p-2) * float64(nBytes) * m.Beta / m.Alpha)))
	if k < 1 {
		return 1
	}
	if k > 4096 {
		return 4096
	}
	return k
}

// PipelinedBcastCost is the model time of the pipelined broadcast with K
// blocks: (p-2+K)(α + δ + (n/K)β).
func PipelinedBcastCost(m model.Machine, p, nBytes, blocks int) float64 {
	if p <= 1 {
		return 0
	}
	steps := float64(p - 2 + blocks)
	return steps * (m.Alpha + m.StepOverhead + float64(nBytes)/float64(blocks)*m.Beta)
}
