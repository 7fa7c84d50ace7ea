package core

import (
	"fmt"

	"repro/internal/datatype"
	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/transport"
)

// Ctx bundles everything one collective invocation needs: the transport
// endpoint, the group (member list plus this node's logical index), a
// per-invocation identifier for the tag namespace, and optionally the
// machine model (for γ accounting and per-stage overhead in simulation).
type Ctx struct {
	EP      transport.Endpoint
	Members []int
	Me      int
	Coll    uint32
	Machine *model.Machine
	// Topology, when non-nil, is the nested partition of the group's
	// logical indices that hierarchical shapes (model.HierShape) execute
	// over; a cluster partition is its depth-1 case. Flat shapes ignore it.
	Topology *group.Topology
	// Hierarchy optionally supplies per-level machine parameters, coarsest
	// first; hierarchical execution uses them to choose each phase's
	// algorithm (short MST vs long bucket) per level. When nil, Machine is
	// used for every level.
	Hierarchy *model.Hierarchy
	// Unstriped disables the striped leader phase of the hierarchical
	// all-reduce (comparison sweeps only).
	Unstriped bool
}

// NewCtx builds a whole-world context for an endpoint.
func NewCtx(ep transport.Endpoint, coll uint32) Ctx {
	return Ctx{EP: ep, Members: group.Identity(ep.Size()), Me: ep.Rank(), Coll: coll}
}

func (c Ctx) env() env {
	e := env{
		ep: c.EP, members: c.Members, me: c.Me,
		coll:      c.Coll,
		carry:     transport.CarriesData(c.EP),
		unstriped: c.Unstriped,
	}
	if c.Machine != nil {
		e.mach = *c.Machine
		e.hasMach = true
	}
	return e
}

func (c Ctx) validate() error {
	if err := group.Validate(c.Members, c.EP.Size()); err != nil {
		return err
	}
	if c.Me < 0 || c.Me >= len(c.Members) {
		return fmt.Errorf("core: logical index %d outside group of %d", c.Me, len(c.Members))
	}
	if c.Members[c.Me] != c.EP.Rank() {
		return fmt.Errorf("core: member %d is rank %d, endpoint is rank %d", c.Me, c.Members[c.Me], c.EP.Rank())
	}
	return nil
}

func checkRoot(root, p int) error {
	if root < 0 || root >= p {
		return fmt.Errorf("core: root %d outside group of %d", root, p)
	}
	return nil
}

func checkBuf(name string, carry bool, buf []byte, bytes int) error {
	if carry && len(buf) < bytes {
		return fmt.Errorf("core: %s buffer %d bytes, need %d", name, len(buf), bytes)
	}
	return nil
}

// Bcast broadcasts count elements of size es from logical root under shape
// s. buf spans the whole vector on every node; the root's buf is the
// input, everyone's buf is the output (Table 1: x at all Pj).
func Bcast(c Ctx, s model.Shape, root int, buf []byte, count, es int) error {
	e := c.env()
	if err := c.validate(); err != nil {
		return err
	}
	if err := checkRoot(root, e.p()); err != nil {
		return err
	}
	if err := checkBuf("broadcast", e.carry, buf, count*es); err != nil {
		return err
	}
	if s.Hier {
		ht, ms, herr := c.hierN()
		if herr != nil {
			return herr
		}
		return hierBcast(&e, ht, ms, root, buf, count, es)
	}
	return hybridBcast(&e, s, root, buf, count, es)
}

// Reduce combines every node's count-element contribution to the logical
// root (Table 1: ⊕y(j) at Pk). Every node passes its contribution in buf;
// the root's buf holds the result, other buffers are clobbered. tmp is
// scratch spanning the vector (may be nil in timing-only mode).
func Reduce(c Ctx, s model.Shape, root int, buf, tmp []byte, count int, dt datatype.Type, op datatype.Op) error {
	e := c.env()
	if err := c.validate(); err != nil {
		return err
	}
	if err := checkRoot(root, e.p()); err != nil {
		return err
	}
	es := dt.Size()
	if err := checkBuf("reduce", e.carry, buf, count*es); err != nil {
		return err
	}
	if err := checkBuf("reduce scratch", e.carry, tmp, count*es); err != nil {
		return err
	}
	if s.Hier {
		ht, ms, herr := c.hierN()
		if herr != nil {
			return herr
		}
		return hierReduce(&e, ht, ms, root, buf, tmp, count, es, dt, op)
	}
	return hybridReduce(&e, s, root, buf, tmp, count, es, dt, op)
}

// AllReduce combines every node's contribution and leaves the result on
// all nodes (Table 1: ⊕y(j) at all Pj). buf is in/out; tmp is scratch.
func AllReduce(c Ctx, s model.Shape, buf, tmp []byte, count int, dt datatype.Type, op datatype.Op) error {
	e := c.env()
	if err := c.validate(); err != nil {
		return err
	}
	es := dt.Size()
	if err := checkBuf("all-reduce", e.carry, buf, count*es); err != nil {
		return err
	}
	if err := checkBuf("all-reduce scratch", e.carry, tmp, count*es); err != nil {
		return err
	}
	if s.Hier {
		ht, ms, herr := c.hierN()
		if herr != nil {
			return herr
		}
		return hierAllReduce(&e, ht, ms, buf, tmp, count, es, dt, op)
	}
	return hybridAllReduce(&e, s, buf, tmp, count, es, dt, op)
}

// Scatter distributes counts[i] elements to logical node i from the root
// (Table 1: xj at Pj). buf spans the whole vector on every node; the
// root's is the input, and each node's own segment is valid on return.
func Scatter(c Ctx, s model.Shape, root int, buf []byte, counts []int, es int) error {
	e := c.env()
	if err := c.validate(); err != nil {
		return err
	}
	if err := checkRoot(root, e.p()); err != nil {
		return err
	}
	offs, err := countOffsets(c, counts, es, e.carry, buf)
	if err != nil {
		return err
	}
	if s.Hier {
		// The hierarchy buys scatter nothing (the root still injects every
		// byte once); run the flat MST scatter over the linear group.
		s = flatShape(e.p())
	}
	return hybridScatter(&e, s, root, offs, buf)
}

// Gather assembles counts[i] elements from each logical node i at the root
// (Table 1: x at Pk). Each node's segment must be in place in buf; the
// root's buf holds the whole vector on return.
func Gather(c Ctx, s model.Shape, root int, buf []byte, counts []int, es int) error {
	e := c.env()
	if err := c.validate(); err != nil {
		return err
	}
	if err := checkRoot(root, e.p()); err != nil {
		return err
	}
	offs, err := countOffsets(c, counts, es, e.carry, buf)
	if err != nil {
		return err
	}
	if s.Hier {
		// Like scatter, gather gains nothing from the hierarchy.
		s = flatShape(e.p())
	}
	return hybridGather(&e, s, root, offs, buf)
}

// Collect assembles every node's segment on all nodes (Table 1: x at all
// Pj) — the all-gather. Each node's segment must be in place in buf; every
// node's buf holds the whole vector on return.
func Collect(c Ctx, s model.Shape, buf []byte, counts []int, es int) error {
	e := c.env()
	if err := c.validate(); err != nil {
		return err
	}
	offs, err := countOffsets(c, counts, es, e.carry, buf)
	if err != nil {
		return err
	}
	if s.Hier {
		ht, ms, herr := c.hierN()
		if herr != nil {
			return herr
		}
		return hierCollect(&e, ht, ms, offs, buf)
	}
	return hybridCollect(&e, s, offs, buf)
}

// ReduceScatter combines every node's full contribution and leaves segment
// i on logical node i (Table 1's distributed combine). buf is the full
// contribution on entry; each node's own segment holds the result. tmp is
// scratch spanning the vector.
func ReduceScatter(c Ctx, s model.Shape, buf, tmp []byte, counts []int, dt datatype.Type, op datatype.Op) error {
	e := c.env()
	if err := c.validate(); err != nil {
		return err
	}
	es := dt.Size()
	offs, err := countOffsets(c, counts, es, e.carry, buf)
	if err != nil {
		return err
	}
	if err := checkBuf("reduce-scatter scratch", e.carry, tmp, offs[len(offs)-1]); err != nil {
		return err
	}
	if s.Hier {
		ht, ms, herr := c.hierN()
		if herr != nil {
			return herr
		}
		return hierReduceScatter(&e, ht, ms, offs, buf, tmp, dt, op)
	}
	return hybridReduceScatter(&e, s, offs, buf, tmp, dt, op)
}

// countOffsets validates counts against the group and returns absolute
// byte offsets.
func countOffsets(c Ctx, counts []int, es int, carry bool, buf []byte) ([]int, error) {
	if len(counts) != len(c.Members) {
		return nil, fmt.Errorf("core: %d counts for group of %d", len(counts), len(c.Members))
	}
	for i, n := range counts {
		if n < 0 {
			return nil, fmt.Errorf("core: negative count %d at %d", n, i)
		}
	}
	if es <= 0 {
		return nil, fmt.Errorf("core: element size %d", es)
	}
	off := make([]int, len(counts)+1)
	for i, n := range counts {
		off[i+1] = off[i] + n*es
	}
	if carry && len(buf) < off[len(counts)] {
		return nil, fmt.Errorf("core: buffer %d bytes, vector needs %d", len(buf), off[len(counts)])
	}
	return off, nil
}

// EqualCounts exposes the library's near-equal partition of n elements
// over p nodes (§3: nᵢ ≈ n/p), used by the facade's equal-partition calls.
func EqualCounts(n, p int) []int { return equalCounts(n, p) }
