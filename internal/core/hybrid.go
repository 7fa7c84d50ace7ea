package core

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// Hybrid execution (§6, template of Fig. 3). A Shape views the group as a
// logical d1×…×dk mesh; a node's coordinate in dimension i is
// (index/Stride_i) % Size_i. The dimensions form a complete mixed-radix
// decomposition of the group, so "the group in dimension i" — the members
// sharing every other coordinate — is well defined and every stage is a
// collective on such a group, run through the same member-list primitives.
//
// Rooted collectives gate their inward stages: at stage i only the groups
// that already hold data participate, namely those whose members match the
// root's coordinates in every dimension not yet processed. The outward
// stages involve all nodes. This reproduces Fig. 1 exactly: on 12 nodes
// with shape (2x2x3, SSMCC), step 1 is a single scatter in the root's
// pair, step 2 scatters in two pairs, steps 3–4 are MST broadcasts in all
// four triples, and steps 5–6 are simultaneous collects in all pairs.

// coords decomposes a logical index into its shape coordinates.
func coords(idx int, dims []model.Dim) []int {
	x := make([]int, len(dims))
	for i, d := range dims {
		x[i] = (idx / d.Stride) % d.Size
	}
	return x
}

// gateOK reports whether a node with coordinates x participates in inward
// stage i toward a root with coordinates r: it must match the root in
// every later (unprocessed) dimension.
func gateOK(x, r []int, i int) bool {
	for j := i + 1; j < len(x); j++ {
		if x[j] != r[j] {
			return false
		}
	}
	return true
}

// partOffsets returns the p+1 absolute byte offsets of splitting element
// range [lo, hi) into d near-equal parts.
func partOffsets(lo, hi, d, es int) []int {
	offs := make([]int, d+1)
	for t := 0; t < d; t++ {
		s, _ := splitPart(lo, hi, d, t)
		offs[t] = s * es
	}
	offs[d] = hi * es
	return offs
}

// sortStrideDescending returns the dims in canonical external order: from
// the largest stride to the smallest, the order required by collectives
// whose input/output partition is externally visible (scatter, gather,
// collect, reduce-scatter), so that every intermediate block is
// index-contiguous.
func sortStrideDescending(dims []model.Dim) []model.Dim {
	out := append([]model.Dim(nil), dims...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Stride > out[j].Stride })
	return out
}

// hybridBcast builds a broadcast under shape s: inward stages scatter
// (long dims) or MST-broadcast (short dims) with gating; outward stages
// bucket-collect. buf spans count elements of size es; root's buf is the
// input, every node's buf is the output.
func hybridBcast(e *env, s model.Shape, root int, buf span, count, es int) error {
	if err := s.Validate(e.p()); err != nil {
		return err
	}
	x := coords(e.me, s.Dims)
	r := coords(root, s.Dims)
	k := len(s.Dims)
	lo, hi := 0, count
	ranges := make([][2]int, s.ShortFrom)
	phase := uint32(0)
	for i := 0; i < k; i++ {
		d := s.Dims[i]
		ph := phase
		phase++
		if d.Size <= 1 {
			if i < s.ShortFrom {
				ranges[i] = [2]int{lo, hi}
			}
			continue
		}
		if i < s.ShortFrom {
			// Long inward stage: scatter my range across the dimension.
			ranges[i] = [2]int{lo, hi}
			if gateOK(x, r, i) {
				sub := e.dimEnv(d)
				offs := partOffsets(lo, hi, d.Size, es)
				mstScatter(&sub, ph, r[i], offs, buf)
			}
			lo, hi = splitPart(lo, hi, d.Size, x[i])
		} else {
			// Short stage: MST broadcast of the current piece.
			if gateOK(x, r, i) {
				sub := e.dimEnv(d)
				mstBcast(&sub, ph, r[i], buf.sub(lo*es, hi*es))
			}
		}
	}
	for i := s.ShortFrom - 1; i >= 0; i-- {
		d := s.Dims[i]
		ph := phase
		phase++
		if d.Size <= 1 {
			lo, hi = ranges[i][0], ranges[i][1]
			continue
		}
		sub := e.dimEnv(d)
		plo, phi := ranges[i][0], ranges[i][1]
		offs := partOffsets(plo, phi, d.Size, es)
		bucketCollect(&sub, ph, offs, buf)
		lo, hi = plo, phi
	}
	return nil
}

// hybridReduce builds a combine-to-one under shape s: inward stages
// bucket-reduce-scatter (long) or MST-reduce (short), outward stages
// MST-gather back to the root. Every node contributes buf; on return the
// root's buf holds the combined vector and other nodes' buffers are
// clobbered. tmp must span count elements.
func hybridReduce(e *env, s model.Shape, root int, buf, tmp span, count, es int) error {
	if err := s.Validate(e.p()); err != nil {
		return err
	}
	x := coords(e.me, s.Dims)
	r := coords(root, s.Dims)
	k := len(s.Dims)
	lo, hi := 0, count
	ranges := make([][2]int, s.ShortFrom)
	phase := uint32(0)
	for i := 0; i < k; i++ {
		d := s.Dims[i]
		ph := phase
		phase++
		if d.Size <= 1 {
			if i < s.ShortFrom {
				ranges[i] = [2]int{lo, hi}
			}
			continue
		}
		if i < s.ShortFrom {
			// Long inward: distributed combine across the dimension; every
			// group holds data, no gate.
			ranges[i] = [2]int{lo, hi}
			sub := e.dimEnv(d)
			offs := partOffsets(lo, hi, d.Size, es)
			bucketReduceScatter(&sub, ph, offs, buf)
			lo, hi = splitPart(lo, hi, d.Size, x[i])
		} else {
			// Short inward: combine-to-one toward the root's coordinate.
			// Only nodes matching the root in already-reduced short
			// dimensions still hold live partial results.
			live := true
			for j := s.ShortFrom; j < i; j++ {
				if x[j] != r[j] {
					live = false
				}
			}
			if live {
				sub := e.dimEnv(d)
				mstReduce(&sub, ph, r[i], buf.sub(lo*es, hi*es), tmp.sub(lo*es, hi*es))
			}
		}
	}
	for i := s.ShortFrom - 1; i >= 0; i-- {
		d := s.Dims[i]
		ph := phase
		phase++
		if d.Size <= 1 {
			lo, hi = ranges[i][0], ranges[i][1]
			continue
		}
		plo, phi := ranges[i][0], ranges[i][1]
		if gateOK(x, r, i) {
			sub := e.dimEnv(d)
			offs := partOffsets(plo, phi, d.Size, es)
			mstGather(&sub, ph, r[i], offs, buf)
		}
		lo, hi = plo, phi
	}
	return nil
}

// hybridAllReduce builds a combine-to-all: inward bucket-reduce-scatters,
// per-dimension combine-to-one + broadcast on short dims, outward bucket
// collects. All stages involve every node. tmp must span count elements.
func hybridAllReduce(e *env, s model.Shape, buf, tmp span, count, es int) error {
	if err := s.Validate(e.p()); err != nil {
		return err
	}
	x := coords(e.me, s.Dims)
	k := len(s.Dims)
	lo, hi := 0, count
	ranges := make([][2]int, s.ShortFrom)
	phase := uint32(0)
	for i := 0; i < k; i++ {
		d := s.Dims[i]
		ph := phase
		phase += 2
		if d.Size <= 1 {
			if i < s.ShortFrom {
				ranges[i] = [2]int{lo, hi}
			}
			continue
		}
		if i < s.ShortFrom {
			ranges[i] = [2]int{lo, hi}
			sub := e.dimEnv(d)
			offs := partOffsets(lo, hi, d.Size, es)
			bucketReduceScatter(&sub, ph, offs, buf)
			lo, hi = splitPart(lo, hi, d.Size, x[i])
		} else {
			// Short: combine-to-one followed by broadcast (§5.1), within
			// the dimension; afterwards every member holds the result, so
			// no gating is needed downstream.
			sub := e.dimEnv(d)
			mstReduce(&sub, ph, 0, buf.sub(lo*es, hi*es), tmp.sub(lo*es, hi*es))
			mstBcast(&sub, ph+1, 0, buf.sub(lo*es, hi*es))
		}
	}
	for i := s.ShortFrom - 1; i >= 0; i-- {
		d := s.Dims[i]
		ph := phase
		phase++
		if d.Size <= 1 {
			lo, hi = ranges[i][0], ranges[i][1]
			continue
		}
		sub := e.dimEnv(d)
		plo, phi := ranges[i][0], ranges[i][1]
		offs := partOffsets(plo, phi, d.Size, es)
		bucketCollect(&sub, ph, offs, buf)
		lo, hi = plo, phi
	}
	return nil
}

// externalDims validates and returns the canonical stride-descending
// dimension order for externally partitioned collectives.
func externalDims(e *env, s model.Shape) ([]model.Dim, error) {
	if err := s.Validate(e.p()); err != nil {
		return nil, err
	}
	dims := s.Dims
	if !model.StrideDescending(dims) {
		dims = sortStrideDescending(dims)
	}
	// The dims must form a complete nested radix: walking from the
	// smallest stride, each dimension's stride must equal the product of
	// the sizes below it.
	stride := 1
	for i := len(dims) - 1; i >= 0; i-- {
		if dims[i].Stride != stride {
			return nil, fmt.Errorf("core: shape %v is not a nested decomposition (dim %d stride %d, want %d)",
				s, i, dims[i].Stride, stride)
		}
		stride *= dims[i].Size
	}
	return dims, nil
}

// groupOffs returns the d.Size+1 byte offsets of the segments held by the
// members of me's group in dimension d when dimensions are processed in
// stride order: the group spans the index block of width Stride·Size that
// contains me.
func groupOffs(me int, d model.Dim, offs []int) []int {
	width := d.Stride * d.Size
	base := me / width * width
	gOffs := make([]int, d.Size+1)
	for t := range gOffs {
		gOffs[t] = offs[base+t*d.Stride]
	}
	return gOffs
}

// hybridCollect builds a collect (all-gather) with user counts: each
// node's segment (offs[me]..offs[me+1]) starts in place in buf; on return
// every node holds the whole vector. Dimensions merge from the smallest
// stride outward so every intermediate block is index-contiguous. Short
// dimensions (Dims[ShortFrom:], the innermost strides) run gather +
// broadcast; long dimensions run the bucket collect.
func hybridCollect(e *env, s model.Shape, offs []int, buf span) error {
	dims, err := externalDims(e, s)
	if err != nil {
		return err
	}
	shortSet := len(dims) - (len(s.Dims) - s.ShortFrom) // dims[shortSet:] are short
	phase := uint32(0)
	for i := len(dims) - 1; i >= 0; i-- {
		d := dims[i]
		ph := phase
		phase += 2
		if d.Size <= 1 {
			continue
		}
		gOffs := groupOffs(e.me, d, offs)
		sub := e.dimEnv(d)
		if i >= shortSet {
			// Short collect: gather to the group's first member, then
			// MST-broadcast the assembled block (§5.1).
			mstGather(&sub, ph, 0, gOffs, buf)
			mstBcast(&sub, ph+1, 0, buf.sub(gOffs[0], gOffs[d.Size]))
		} else {
			bucketCollect(&sub, ph, gOffs, buf)
		}
	}
	return nil
}

// hybridScatter builds a scatter with user counts from the given root:
// the root's buf holds the whole vector; on return each node's segment is
// in place in its buf. Dimensions split from the largest stride inward;
// inward gating keeps only data-holding groups active.
func hybridScatter(e *env, s model.Shape, root int, offs []int, buf span) error {
	dims, err := externalDims(e, s)
	if err != nil {
		return err
	}
	x := coords(e.me, dims)
	r := coords(root, dims)
	phase := uint32(0)
	for i := 0; i < len(dims); i++ {
		d := dims[i]
		ph := phase
		phase++
		if d.Size <= 1 {
			continue
		}
		if gateOK(x, r, i) {
			sub := e.dimEnv(d)
			mstScatter(&sub, ph, r[i], groupOffs(e.me, d, offs), buf)
		}
	}
	return nil
}

// hybridGather builds a gather with user counts toward the given root:
// each node's segment starts in place; on return the root holds the whole
// vector. Dimensions merge from the smallest stride outward with gating.
func hybridGather(e *env, s model.Shape, root int, offs []int, buf span) error {
	dims, err := externalDims(e, s)
	if err != nil {
		return err
	}
	x := coords(e.me, dims)
	r := coords(root, dims)
	phase := uint32(0)
	for i := len(dims) - 1; i >= 0; i-- {
		d := dims[i]
		ph := phase
		phase++
		if d.Size <= 1 {
			continue
		}
		if gateOK(x, r, i) {
			sub := e.dimEnv(d)
			mstGather(&sub, ph, r[i], groupOffs(e.me, d, offs), buf)
		}
	}
	return nil
}

// hybridReduceScatter builds a distributed combine with user counts:
// every node's buf holds a full contribution; on return each node's
// segment holds the combined values, in place. Long dimensions run the
// bucket distributed combine; short dimensions run combine-to-one +
// scatter (§5.1). tmp must span the whole vector.
func hybridReduceScatter(e *env, s model.Shape, offs []int, buf, tmp span) error {
	dims, err := externalDims(e, s)
	if err != nil {
		return err
	}
	shortSet := len(dims) - (len(s.Dims) - s.ShortFrom)
	phase := uint32(0)
	for i := 0; i < len(dims); i++ {
		d := dims[i]
		ph := phase
		phase += 2
		if d.Size <= 1 {
			continue
		}
		gOffs := groupOffs(e.me, d, offs)
		sub := e.dimEnv(d)
		if i >= shortSet {
			// Short: combine-to-one at the group's first member, then
			// scatter the combined block.
			mstReduce(&sub, ph, 0, buf.sub(gOffs[0], gOffs[d.Size]), tmp.sub(gOffs[0], gOffs[d.Size]))
			mstScatter(&sub, ph+1, 0, gOffs, buf)
		} else {
			bucketReduceScatter(&sub, ph, gOffs, buf)
		}
	}
	return nil
}
