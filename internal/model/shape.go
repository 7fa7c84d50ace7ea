package model

import (
	"fmt"
	"strings"
)

// Collective enumerates the seven target operations of Table 1 plus the
// complete exchange (all-to-all), the one dense pattern the table lacks.
type Collective int

// The target collective communication operations (Table 1, plus AllToAll).
const (
	Bcast         Collective = iota // broadcast: x at root → x at all
	Reduce                          // combine-to-one: y(j) at Pj → ⊕y(j) at root
	Scatter                         // x at root → xj at Pj
	Gather                          // xj at Pj → x at root
	Collect                         // xj at Pj → x at all (allgather)
	ReduceScatter                   // distributed combine: y(j) at Pj → (⊕y)(i) at Pi
	AllReduce                       // combine-to-all: y(j) at Pj → ⊕y(j) at all
	AllToAll                        // complete exchange: x(j)i at Pj → x(i)j at Pi
)

var collNames = [...]string{
	Bcast: "broadcast", Reduce: "reduce", Scatter: "scatter", Gather: "gather",
	Collect: "collect", ReduceScatter: "reduce-scatter", AllReduce: "all-reduce",
	AllToAll: "all-to-all",
}

// Collectives lists all eight operations, in Table 1 order with the
// complete exchange appended.
func Collectives() []Collective {
	return []Collective{Bcast, Reduce, Scatter, Gather, Collect, ReduceScatter, AllReduce, AllToAll}
}

// String returns the operation's name, e.g. "reduce-scatter".
func (c Collective) String() string {
	if c < Bcast || c > AllToAll {
		return fmt.Sprintf("Collective(%d)", int(c))
	}
	return collNames[c]
}

// Combines reports whether the collective applies the ⊕ operation (and so
// pays γ arithmetic time).
func (c Collective) Combines() bool {
	return c == Reduce || c == ReduceScatter || c == AllReduce
}

// Rooted reports whether the collective distinguishes a root node.
func (c Collective) Rooted() bool {
	return c == Bcast || c == Reduce || c == Scatter || c == Gather
}

// Dim is one logical dimension of a hybrid's d1×…×dk view of a group (§6).
type Dim struct {
	// Size is the dimension's extent, ≥ 1.
	Size int
	// Stride is the global rank stride between consecutive members of a
	// group in this dimension; a node's coordinate is (rank/Stride)%Size.
	Stride int
	// Conflict is the number of interleaved same-dimension groups whose
	// messages share physical links: the product of the sizes of the
	// logical dimensions carved earlier out of the same physical
	// dimension. Whole physical rows and columns have Conflict 1.
	Conflict int
}

// Shape is a hybrid algorithm: a logical mesh (Dims, in execution order,
// outermost stage first) plus the point at which the recursion of Fig. 3
// switches to the short-vector algorithm. Dims[:ShortFrom] are "long"
// dimensions, each contributing a long-vector stage 1 on the way in and a
// long-vector stage 2 on the way out; Dims[ShortFrom:] run the collective's
// short-vector algorithm, one dimension at a time.
//
// For a broadcast, ShortFrom = len(Dims) is the pure scatter/collect chain
// ("SS…CC"), ShortFrom = 0 is the pure minimum-spanning-tree algorithm
// ("M…M"), and intermediate values are the paper's S…SMC…C hybrids.
type Shape struct {
	Dims      []Dim
	ShortFrom int
	// Hier selects the hierarchical strategy instead of a flat hybrid:
	// collectives are composed of intra-block phases and one leader-level
	// phase per topology level over one representative per block. The
	// topology itself travels with the invocation context, not the shape;
	// Dims and ShortFrom are unused when Hier is set. See Hierarchy.Cost for
	// the cost model that decides when the hierarchy wins.
	Hier bool
}

// P returns the total number of nodes the shape spans.
func (s Shape) P() int {
	p := 1
	for _, d := range s.Dims {
		p *= d.Size
	}
	return p
}

// Strategy renders the stage letters for the broadcast family, in the
// paper's Table 2 notation: S for a long stage-1, M for a short dimension,
// C for a long stage-2 — e.g. "SSMCC" for a 2×3×5 hybrid with ShortFrom 2.
func (s Shape) Strategy() string {
	if s.Hier {
		return "H"
	}
	var b strings.Builder
	for i := 0; i < s.ShortFrom; i++ {
		b.WriteByte('S')
	}
	for i := s.ShortFrom; i < len(s.Dims); i++ {
		b.WriteByte('M')
	}
	for i := s.ShortFrom - 1; i >= 0; i-- {
		b.WriteByte('C')
	}
	return b.String()
}

// Mesh renders the logical mesh as "2x3x5".
func (s Shape) Mesh() string {
	var b strings.Builder
	for i, d := range s.Dims {
		if i > 0 {
			b.WriteByte('x')
		}
		fmt.Fprint(&b, d.Size)
	}
	return b.String()
}

// String renders the shape as "(2x3x5, SSMCC)", Table 2's pair notation;
// the hierarchical strategy renders as "(two-level, H)".
func (s Shape) String() string {
	if s.Hier {
		return "(two-level, H)"
	}
	return "(" + s.Mesh() + ", " + s.Strategy() + ")"
}

// Validate checks internal consistency of the shape against a world of p
// nodes.
func (s Shape) Validate(p int) error {
	if s.Hier {
		// Dims are unused; the executor validates the cluster partition.
		return nil
	}
	if len(s.Dims) == 0 {
		return fmt.Errorf("model: shape has no dimensions")
	}
	if s.ShortFrom < 0 || s.ShortFrom > len(s.Dims) {
		return fmt.Errorf("model: ShortFrom %d out of range for %d dims", s.ShortFrom, len(s.Dims))
	}
	if s.P() != p {
		return fmt.Errorf("model: shape %v spans %d nodes, group has %d", s, s.P(), p)
	}
	for i, d := range s.Dims {
		if d.Size < 1 || d.Stride < 1 || d.Conflict < 1 {
			return fmt.Errorf("model: shape dim %d invalid: %+v", i, d)
		}
	}
	return nil
}

// Cost returns the modelled execution time in seconds of collective c with
// an n-byte vector under this shape. The accounting follows §6 exactly;
// with LinkExcess=1 it reproduces the Table 2 entries.
func (m Machine) Cost(c Collective, s Shape, n float64) float64 {
	// mAt[i] = message length when dimension i is processed:
	// n divided by the sizes of all earlier dimensions.
	k := len(s.Dims)
	mAt := make([]float64, k+1)
	mAt[0] = n
	for i, d := range s.Dims {
		mAt[i+1] = mAt[i] / float64(d.Size)
	}
	var t float64
	switch c {
	case Bcast:
		for i := 0; i < s.ShortFrom; i++ { // scatter in, collect out
			d := s.Dims[i]
			t += m.MSTScatter(d.Size, mAt[i], d.Conflict)
			t += m.BucketCollect(d.Size, mAt[i], d.Conflict)
		}
		for i := s.ShortFrom; i < k; i++ { // MST on the scattered piece
			d := s.Dims[i]
			t += m.MSTBcast(d.Size, mAt[s.ShortFrom], d.Conflict)
		}
	case Reduce:
		for i := 0; i < s.ShortFrom; i++ { // reduce-scatter in, gather out
			d := s.Dims[i]
			t += m.BucketReduceScatter(d.Size, mAt[i], d.Conflict)
			t += m.MSTGather(d.Size, mAt[i], d.Conflict)
		}
		for i := s.ShortFrom; i < k; i++ {
			d := s.Dims[i]
			t += m.MSTReduce(d.Size, mAt[s.ShortFrom], d.Conflict)
		}
	case AllReduce:
		for i := 0; i < s.ShortFrom; i++ { // reduce-scatter in, collect out
			d := s.Dims[i]
			t += m.BucketReduceScatter(d.Size, mAt[i], d.Conflict)
			t += m.BucketCollect(d.Size, mAt[i], d.Conflict)
		}
		for i := s.ShortFrom; i < k; i++ { // combine-to-one + broadcast
			d := s.Dims[i]
			t += m.ShortAllReduce(d.Size, mAt[s.ShortFrom], d.Conflict)
		}
	case Collect:
		// Long dimensions contribute only a stage-2 bucket collect; short
		// dimensions run gather+broadcast on the piece being assembled.
		for i := 0; i < s.ShortFrom; i++ {
			d := s.Dims[i]
			t += m.BucketCollect(d.Size, mAt[i], d.Conflict)
		}
		for i := s.ShortFrom; i < k; i++ {
			d := s.Dims[i]
			t += m.ShortCollect(d.Size, mAt[i], d.Conflict)
		}
	case ReduceScatter:
		// Long dimensions: bucket reduce-scatter, shrinking as it goes.
		// Short dimensions: combine-to-one + scatter (§5.1), also shrinking.
		for i := 0; i < s.ShortFrom; i++ {
			d := s.Dims[i]
			t += m.BucketReduceScatter(d.Size, mAt[i], d.Conflict)
		}
		for i := s.ShortFrom; i < k; i++ {
			d := s.Dims[i]
			t += m.MSTReduce(d.Size, mAt[i], d.Conflict) +
				m.MSTScatter(d.Size, mAt[i], d.Conflict)
		}
	case AllToAll:
		// The complete exchange runs over the whole group as a linear
		// array: Bruck relay when every dimension is short (ShortFrom 0),
		// rotation/pairwise otherwise. Mesh decompositions add nothing the
		// direct pairwise schedule does not already achieve (every block
		// still crosses the network), so the menu is the two endpoints.
		if s.ShortFrom == 0 {
			t = m.ShortAllToAll(s.P(), n, 1)
		} else {
			t = m.LongAllToAll(s.P(), n, 1)
		}
	case Scatter:
		for i, d := range s.Dims {
			t += m.MSTScatter(d.Size, mAt[i], d.Conflict)
		}
	case Gather:
		for i, d := range s.Dims {
			t += m.MSTGather(d.Size, mAt[i], d.Conflict)
		}
	}
	return t
}
