package core

import (
	"fmt"
	"sync"

	"repro/internal/datatype"
	"repro/internal/model"
	"repro/internal/transport"
)

// A collective invocation is data-oblivious: given the group, the shape,
// the root and the byte layout, the sequence of sends, receives, combines
// and copies a rank performs is fixed. A Plan is that sequence, emitted
// once by the builders of this package (build.go) and run any number of
// times by Execute — the only code in the package that touches an endpoint
// or knows a data-carrying transport from a timing-only one. Every
// collective of the library, in every completion mode, is a plan lookup
// followed by Execute, so the hot path never re-runs shape resolution,
// coordinate arithmetic, gating or offset computation, and never allocates.
//
// A plan is rank-specific (it holds only this rank's steps, with peer
// transport ranks resolved) and addresses data by (space, offset) pairs
// into three buffer spaces supplied at execution time:
//
//   - Buf: the primary vector (the working buffer, or the send vector of
//     an all-to-all);
//   - Tmp: the combine scratch vector (or the receive vector of an
//     all-to-all);
//   - Scratch: an arena covering every buffer the algorithms use
//     internally (relay buffers, packing copies, ...), sized by the build.

// stepOp enumerates the plan instruction set.
type stepOp uint8

const (
	opSend     stepOp = iota // send n bytes at a to peer
	opRecv                   // receive n bytes from peer into a
	opSendRecv               // send a→peer and receive peer2→b concurrently
	opCombine                // a[:n] ⊕= b[:n], charging n·γ
	opCopy                   // copy(a[:n], b[:n])
	opElapse                 // charge the per-step software overhead
)

// space identifies the buffer a bufRef points into.
type space uint8

const (
	spaceBuf space = iota
	spaceTmp
	spaceScratch
	spaceNone // zero-length reference
)

// bufRef addresses a byte range in one of the plan's buffer spaces.
type bufRef struct {
	space space
	off   int
}

// step is one plan instruction.
type step struct {
	op        stepOp
	peer      int // transport rank (send target / recv source)
	peer2     int // recv source of a sendRecv
	tag, tag2 transport.Tag
	a, b      bufRef
	n, n2     int
}

// Buffers supplies the three buffer spaces a plan executes against. On
// data-carrying transports each must be at least the corresponding
// Plan length; on timing-only transports all three may be nil.
type Buffers struct {
	Buf, Tmp, Scratch []byte
}

// Plan is the step sequence of one collective invocation on one rank,
// runnable any number of times via Execute.
type Plan struct {
	steps []step
	// BufLen, TmpLen and ScratchLen are the byte lengths the three buffer
	// spaces must provide on data-carrying transports: the vector, and as
	// much of Tmp and Scratch as the steps use.
	BufLen, TmpLen, ScratchLen int
	// DT and CombineOp interpret buffers during combine steps.
	DT        datatype.Type
	CombineOp datatype.Op
}

// Steps returns the number of instructions.
func (pl *Plan) Steps() int { return len(pl.steps) }

// Execute runs the plan against an endpoint. mach, when non-nil, charges γ
// per combined byte and the per-step software overhead on virtual-time
// transports. Buffers must cover the plan's declared lengths on
// data-carrying transports.
func (pl *Plan) Execute(ep transport.Endpoint, mach *model.Machine, bs Buffers) error {
	carry := transport.CarriesData(ep)
	if carry {
		if len(bs.Buf) < pl.BufLen || len(bs.Tmp) < pl.TmpLen || len(bs.Scratch) < pl.ScratchLen {
			return fmt.Errorf("core: plan buffers %d/%d/%d bytes, need %d/%d/%d",
				len(bs.Buf), len(bs.Tmp), len(bs.Scratch), pl.BufLen, pl.TmpLen, pl.ScratchLen)
		}
	}
	ss, hasSS := ep.(transport.SizeSender)
	// A failed step aborts the world (see transport.AbortOnError), so peers
	// blocked mid-plan return within the propagation bound instead of
	// waiting out their receive timeouts.
	fail := func(err error) error { return transport.AbortOnError(ep, err) }
	sl := func(r bufRef, n int) []byte {
		if !carry || r.space == spaceNone {
			return nil
		}
		switch r.space {
		case spaceBuf:
			return bs.Buf[r.off : r.off+n]
		case spaceTmp:
			return bs.Tmp[r.off : r.off+n]
		default:
			return bs.Scratch[r.off : r.off+n]
		}
	}
	for i := range pl.steps {
		st := &pl.steps[i]
		switch st.op {
		case opSend:
			var err error
			switch {
			case carry:
				err = ep.Send(st.peer, st.tag, sl(st.a, st.n))
			case hasSS:
				err = ss.SendSize(st.peer, st.tag, st.n)
			default:
				err = ep.Send(st.peer, st.tag, make([]byte, st.n))
			}
			if err != nil {
				return fail(err)
			}
		case opRecv:
			var got int
			var err error
			switch {
			case carry:
				got, err = ep.Recv(st.peer, st.tag, sl(st.a, st.n))
			case hasSS:
				got, err = ss.RecvSize(st.peer, st.tag, st.n)
			default:
				got, err = ep.Recv(st.peer, st.tag, make([]byte, st.n))
			}
			if err != nil {
				return fail(err)
			}
			if got != st.n {
				return fail(fmt.Errorf("%w: core: plan received %d bytes from %d, want %d (tag %#x)", transport.ErrTruncate, got, st.peer, st.n, uint32(st.tag)))
			}
		case opSendRecv:
			var got int
			var err error
			switch {
			case carry:
				got, err = ep.SendRecv(st.peer, st.tag, sl(st.a, st.n), st.peer2, st.tag2, sl(st.b, st.n2))
			case hasSS:
				got, err = ss.SendRecvSize(st.peer, st.tag, st.n, st.peer2, st.tag2, st.n2)
			default:
				got, err = ep.SendRecv(st.peer, st.tag, make([]byte, st.n), st.peer2, st.tag2, make([]byte, st.n2))
			}
			if err != nil {
				return fail(err)
			}
			if got != st.n2 {
				return fail(fmt.Errorf("%w: core: plan received %d bytes from %d, want %d (tag %#x)", transport.ErrTruncate, got, st.peer2, st.n2, uint32(st.tag2)))
			}
		case opCombine:
			if carry && st.n > 0 {
				if err := datatype.Apply(pl.DT, pl.CombineOp, sl(st.a, st.n), sl(st.b, st.n)); err != nil {
					return fail(err)
				}
			}
			if mach != nil {
				transport.Elapse(ep, float64(st.n)*mach.Gamma)
			}
		case opCopy:
			if carry {
				copy(sl(st.a, st.n), sl(st.b, st.n))
			}
		case opElapse:
			if mach != nil && mach.StepOverhead > 0 {
				transport.Elapse(ep, mach.StepOverhead)
			}
		}
	}
	return nil
}

// progPool recycles build state: a build appends to a pooled step slice and
// seals an exact-size copy, so a plan costs one step allocation however
// many steps it has.
var progPool = sync.Pool{New: func() any { return new(prog) }}

func newProg() *prog {
	pg := progPool.Get().(*prog)
	pg.steps, pg.scratchLen = pg.steps[:0], 0
	return pg
}

// finish seals the build into an executable plan whose vector is bufLen
// bytes. Tmp is declared only as far as the steps reach into it: the
// combine scratch of a shape with no short stage is never touched, and a
// vector nobody touches should not cost its caller a staging buffer.
func (pg *prog) finish(bufLen int, dt datatype.Type, op datatype.Op) *Plan {
	tmpLen := 0
	for i := range pg.steps {
		st := &pg.steps[i]
		if st.a.space == spaceTmp {
			tmpLen = max(tmpLen, st.a.off+st.n)
		}
		if st.b.space == spaceTmp {
			n := st.n
			if st.op == opSendRecv {
				n = st.n2
			}
			tmpLen = max(tmpLen, st.b.off+n)
		}
	}
	pl := &Plan{
		steps:      append([]step(nil), pg.steps...),
		BufLen:     bufLen,
		TmpLen:     tmpLen,
		ScratchLen: pg.scratchLen,
		DT:         dt,
		CombineOp:  op,
	}
	progPool.Put(pg)
	return pl
}
