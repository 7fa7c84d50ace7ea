package core

import (
	"fmt"

	"repro/internal/datatype"
	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/transport"
)

// Plan construction entry points: one Build* per collective. Each validates
// its arguments, dispatches on the shape and emits this rank's steps as a
// Plan for Execute. The algorithms are data-oblivious, so the plan is valid
// for every invocation with the same (group, shape, root, counts) tuple,
// and building it never looks at — or sizes anything by — the payload.

// Ctx bundles what building one collective invocation needs: the endpoint
// (for its rank and world size only), the group (member list plus this
// node's logical index), a per-invocation identifier for the tag namespace,
// and optionally the machine model.
type Ctx struct {
	EP      transport.Endpoint
	Members []int
	Me      int
	Coll    uint32
	Machine *model.Machine
	// Topology, when non-nil, is the nested partition of the group's
	// logical indices that hierarchical shapes (model.HierShape) are built
	// over; a cluster partition is its depth-1 case. Flat shapes ignore it.
	Topology *group.Topology
	// Hierarchy optionally supplies per-level machine parameters, coarsest
	// first; hierarchical builds use them to choose each phase's algorithm
	// (short MST vs long bucket) per level. When nil, Machine is used for
	// every level.
	Hierarchy *model.Hierarchy
	// Unstriped disables the striped leader phase of the hierarchical
	// all-reduce (comparison sweeps only).
	Unstriped bool
}

// NewCtx builds a whole-world context for an endpoint.
func NewCtx(ep transport.Endpoint, coll uint32) Ctx {
	return Ctx{EP: ep, Members: group.Identity(ep.Size()), Me: ep.Rank(), Coll: coll}
}

// Run executes a just-built plan once on the context's endpoint, charging
// the context's machine: c.Run(bs)(BuildBcast(c, s, root, n, 1)) is a whole
// broadcast. It is how harnesses and tests, which have no plan cache, run a
// collective. bs supplies Buf and Tmp (nothing on timing-only endpoints);
// the scratch arena is allocated here.
func (c Ctx) Run(bs Buffers) func(*Plan, error) error {
	return func(pl *Plan, err error) error {
		if err != nil {
			return err
		}
		if transport.CarriesData(c.EP) {
			bs.Scratch = make([]byte, pl.ScratchLen)
		}
		return pl.Execute(c.EP, c.Machine, bs)
	}
}

// begin validates the context and opens a plan for its whole group.
func (c Ctx) begin() (env, error) {
	if err := group.Validate(c.Members, c.EP.Size()); err != nil {
		return env{}, err
	}
	if c.Me < 0 || c.Me >= len(c.Members) {
		return env{}, fmt.Errorf("core: logical index %d outside group of %d", c.Me, len(c.Members))
	}
	if c.Members[c.Me] != c.EP.Rank() {
		return env{}, fmt.Errorf("core: member %d is rank %d, endpoint is rank %d", c.Me, c.Members[c.Me], c.EP.Rank())
	}
	return env{members: c.Members, me: c.Me, coll: c.Coll, unstriped: c.Unstriped, out: newProg()}, nil
}

// vectors are the spans of the whole Buf and Tmp spaces of a plan whose
// vector is n bytes.
func vectors(n int) (buf, tmp span) {
	return span{spaceBuf, 0, n}, span{spaceTmp, 0, n}
}

func checkRoot(root, p int) error {
	if root < 0 || root >= p {
		return fmt.Errorf("core: root %d outside group of %d", root, p)
	}
	return nil
}

func checkCountES(count, es int) error {
	if count < 0 {
		return fmt.Errorf("core: negative count %d", count)
	}
	if es <= 0 {
		return fmt.Errorf("core: element size %d", es)
	}
	return nil
}

// countOffsets validates counts against a group of p and returns absolute
// byte offsets.
func countOffsets(p int, counts []int, es int) ([]int, error) {
	if len(counts) != p {
		return nil, fmt.Errorf("core: %d counts for group of %d", len(counts), p)
	}
	if es <= 0 {
		return nil, fmt.Errorf("core: element size %d", es)
	}
	off := make([]int, len(counts)+1)
	for i, n := range counts {
		if n < 0 {
			return nil, fmt.Errorf("core: negative count %d at %d", n, i)
		}
		off[i+1] = off[i] + n*es
	}
	return off, nil
}

// EqualCounts exposes the library's near-equal partition of n elements
// over p nodes (§3: nᵢ ≈ n/p), used by the facade's equal-partition calls.
func EqualCounts(n, p int) []int { return equalCounts(n, p) }

// BuildBcast builds the broadcast of count es-byte elements from root
// under shape s (Table 1: x at all Pj). The plan's Buf space is the vector:
// the root's is the input, everyone's is the output.
func BuildBcast(c Ctx, s model.Shape, root, count, es int) (*Plan, error) {
	e, err := c.begin()
	if err != nil {
		return nil, err
	}
	if err := checkRoot(root, e.p()); err != nil {
		return nil, err
	}
	if err := checkCountES(count, es); err != nil {
		return nil, err
	}
	buf, _ := vectors(count * es)
	if s.Hier {
		ht, ms, herr := c.hierN()
		if herr != nil {
			return nil, herr
		}
		err = bcastTree(&e, &ht, ms, 0, root, buf, count, es)
	} else {
		err = hybridBcast(&e, s, root, buf, count, es)
	}
	if err != nil {
		return nil, err
	}
	return e.out.finish(buf.n, datatype.Uint8, datatype.Sum), nil
}

// BuildReduce builds the combine-to-root (Table 1: ⊕y(j) at Pk). Buf is
// the working vector (contribution in, result out at root, clobbered
// elsewhere); Tmp is the combine scratch.
func BuildReduce(c Ctx, s model.Shape, root, count int, dt datatype.Type, op datatype.Op) (*Plan, error) {
	e, err := c.begin()
	if err != nil {
		return nil, err
	}
	if err := checkRoot(root, e.p()); err != nil {
		return nil, err
	}
	es := dt.Size()
	if err := checkCountES(count, es); err != nil {
		return nil, err
	}
	buf, tmp := vectors(count * es)
	if s.Hier {
		ht, ms, herr := c.hierN()
		if herr != nil {
			return nil, herr
		}
		err = reduceTree(&e, &ht, ms, 0, root, buf, tmp, count, es)
	} else {
		err = hybridReduce(&e, s, root, buf, tmp, count, es)
	}
	if err != nil {
		return nil, err
	}
	return e.out.finish(buf.n, dt, op), nil
}

// BuildAllReduce builds the combine-to-all (Table 1: ⊕y(j) at all Pj). Buf
// is the working vector (contribution in, result out everywhere); Tmp is
// the combine scratch.
func BuildAllReduce(c Ctx, s model.Shape, count int, dt datatype.Type, op datatype.Op) (*Plan, error) {
	e, err := c.begin()
	if err != nil {
		return nil, err
	}
	es := dt.Size()
	if err := checkCountES(count, es); err != nil {
		return nil, err
	}
	buf, tmp := vectors(count * es)
	if s.Hier {
		ht, ms, herr := c.hierN()
		if herr != nil {
			return nil, herr
		}
		err = hierAllReduce(&e, ht, ms, buf, tmp, count, es)
	} else {
		err = hybridAllReduce(&e, s, buf, tmp, count, es)
	}
	if err != nil {
		return nil, err
	}
	return e.out.finish(buf.n, dt, op), nil
}

// BuildScatter builds the distribution of counts[i] elements to each node
// from root (Table 1: xj at Pj). Buf spans the whole vector on every node;
// the root's is the input, and each node's own segment is valid on return.
func BuildScatter(c Ctx, s model.Shape, root int, counts []int, es int) (*Plan, error) {
	return buildRooted(c, s, root, counts, es, hybridScatter)
}

// BuildGather builds the assembly of counts[i] elements from each node at
// root (Table 1: x at Pk). Each node's segment must be in place in Buf; the
// root's Buf holds the whole vector on return.
func BuildGather(c Ctx, s model.Shape, root int, counts []int, es int) (*Plan, error) {
	return buildRooted(c, s, root, counts, es, hybridGather)
}

func buildRooted(c Ctx, s model.Shape, root int, counts []int, es int,
	hybrid func(*env, model.Shape, int, []int, span) error) (*Plan, error) {
	e, err := c.begin()
	if err != nil {
		return nil, err
	}
	if err := checkRoot(root, e.p()); err != nil {
		return nil, err
	}
	offs, err := countOffsets(e.p(), counts, es)
	if err != nil {
		return nil, err
	}
	buf, _ := vectors(offs[len(offs)-1])
	if s.Hier {
		// The hierarchy buys scatter and gather nothing (the root still
		// moves every byte once); run the flat MST algorithm over the
		// linear group.
		s = linShape(e.p(), 0)
	}
	if err := hybrid(&e, s, root, offs, buf); err != nil {
		return nil, err
	}
	return e.out.finish(buf.n, datatype.Uint8, datatype.Sum), nil
}

// BuildCollect builds the all-gather (Table 1: x at all Pj). Each node's
// segment must be in place in Buf; every node's Buf holds the whole vector
// on return.
func BuildCollect(c Ctx, s model.Shape, counts []int, es int) (*Plan, error) {
	e, err := c.begin()
	if err != nil {
		return nil, err
	}
	offs, err := countOffsets(e.p(), counts, es)
	if err != nil {
		return nil, err
	}
	buf, _ := vectors(offs[len(offs)-1])
	if s.Hier {
		ht, ms, herr := c.hierN()
		if herr != nil {
			return nil, herr
		}
		err = hierCollect(&e, ht, ms, offs, buf)
	} else {
		err = hybridCollect(&e, s, offs, buf)
	}
	if err != nil {
		return nil, err
	}
	return e.out.finish(buf.n, datatype.Uint8, datatype.Sum), nil
}

// BuildReduceScatter builds Table 1's distributed combine. Buf is the full
// contribution on entry (own segment holds the result on return); Tmp is
// the combine scratch.
func BuildReduceScatter(c Ctx, s model.Shape, counts []int, dt datatype.Type, op datatype.Op) (*Plan, error) {
	e, err := c.begin()
	if err != nil {
		return nil, err
	}
	offs, err := countOffsets(e.p(), counts, dt.Size())
	if err != nil {
		return nil, err
	}
	buf, tmp := vectors(offs[len(offs)-1])
	if s.Hier {
		ht, ms, herr := c.hierN()
		if herr != nil {
			return nil, herr
		}
		err = hierReduceScatter(&e, ht, ms, offs, buf, tmp, dt.Size())
	} else {
		err = hybridReduceScatter(&e, s, offs, buf, tmp)
	}
	if err != nil {
		return nil, err
	}
	return e.out.finish(buf.n, dt, op), nil
}
