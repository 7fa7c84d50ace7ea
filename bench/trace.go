package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/transport"
)

// Tracing lives entirely outside the library: spans are opened around the
// public Comm calls by the workloads, and around every transport operation
// by a wrapper endpoint handed to icc.New. A layer's self time is its
// span minus the part its child spans cover.

type spanKind uint8

const (
	kRound    spanKind = iota // one timed round
	kCall                     // a blocking Comm call
	kStart                    // Persistent.Start
	kWait                     // Persistent.Wait / Request.Wait
	kIssue                    // an I* call
	kInit                     // an *Init on a cached plan, with its Free
	kRecover                  // Shrink, Agree, the resync and the first call after it
	kSend                     // transport Send
	kRecv                     // transport Recv
	kSendRecv                 // transport SendRecv
)

var kindNames = [...]string{"round", "call", "start", "wait", "issue", "init", "recover", "send", "recv", "sendrecv"}

func (k spanKind) transport() bool { return k >= kSend }

// span is one recorded interval on one rank. parent indexes the same
// rank's span list (-1 at the top); round is the timed round the span
// belongs to, -1 outside any (warm-up, the aligning barrier).
type span struct {
	name   string
	kind   spanKind
	parent int32
	round  int32
	t0, t1 float64 // seconds on the recorder's clock
	bytes  int     // transport spans: payload bytes sent
	failed bool    // transport spans: the operation returned an error
}

func (s span) dur() float64 { return s.t1 - s.t0 }

// recorder holds one rank's spans. The rank's goroutine opens and closes
// call spans; transport spans arrive from it or from the communicator's
// progress goroutine, hence the mutex (uncontended except around Start).
type recorder struct {
	mu    sync.Mutex
	rank  int
	now   func() float64
	spans []span
	open  []int32 // stack of open non-transport spans
	round int32
}

func newRecorder(rank int, now func() float64) *recorder {
	return &recorder{rank: rank, now: now, round: -1}
}

// wallClock returns a monotonic clock in seconds shared by every rank of
// one traced pass.
func wallClock() func() float64 {
	epoch := time.Now()
	return func() float64 { return time.Since(epoch).Seconds() }
}

// setRound marks the spans that follow as belonging to timed round r
// (-1: none).
func (r *recorder) setRound(round int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.round = int32(round)
	r.mu.Unlock()
}

func (r *recorder) parentLocked() int32 {
	if n := len(r.open); n > 0 {
		return r.open[n-1]
	}
	return -1
}

// begin opens a span under the innermost open one and returns its index.
// begin, end and setRound do nothing on a nil recorder: tracing off.
func (r *recorder) begin(kind spanKind, name string) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, kind: kind, parent: r.parentLocked(), round: r.round, t0: r.now()})
	r.open = append(r.open, id)
	r.mu.Unlock()
	return id
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].t1 = r.now()
	r.open = r.open[:len(r.open)-1]
	r.mu.Unlock()
}

// leaf records a finished transport operation.
func (r *recorder) leaf(kind spanKind, t0 float64, sent int, err error) {
	r.mu.Lock()
	r.spans = append(r.spans, span{
		name: kindNames[kind], kind: kind, parent: r.parentLocked(), round: r.round,
		t0: t0, t1: r.now(), bytes: sent, failed: err != nil,
	})
	r.mu.Unlock()
}

// tracer is the span-recording transport.Endpoint. Every current transport
// is an Aborter and a Recoverer, so the base type forwards those two; the
// capabilities only some transports have are added by the two types below,
// and wrapTrace picks the one that matches the inner endpoint exactly — a
// wrapper that claimed a capability its inner endpoint lacks (a clock that
// reads zero, a machine the transport never declared) would change what
// the library plans and so what the benchmark measures.
type tracer struct {
	inner transport.Endpoint
	rec   *recorder
}

func (t *tracer) Rank() int    { return t.inner.Rank() }
func (t *tracer) Size() int    { return t.inner.Size() }
func (t *tracer) Close() error { return t.inner.Close() }

func (t *tracer) Send(to int, tag transport.Tag, p []byte) error {
	t0 := t.rec.now()
	err := t.inner.Send(to, tag, p)
	t.rec.leaf(kSend, t0, len(p), err)
	return err
}

func (t *tracer) Recv(from int, tag transport.Tag, p []byte) (int, error) {
	t0 := t.rec.now()
	n, err := t.inner.Recv(from, tag, p)
	t.rec.leaf(kRecv, t0, 0, err)
	return n, err
}

func (t *tracer) SendRecv(to int, stag transport.Tag, sp []byte, from int, rtag transport.Tag, rp []byte) (int, error) {
	t0 := t.rec.now()
	n, err := t.inner.SendRecv(to, stag, sp, from, rtag, rp)
	t.rec.leaf(kSendRecv, t0, len(sp), err)
	return n, err
}

func (t *tracer) Abort(reason error) { transport.Abort(t.inner, reason) }
func (t *tracer) AbortErr() error    { return transport.AbortErr(t.inner) }
func (t *tracer) Reset(failed []int) { transport.Reset(t.inner, failed) }
func (t *tracer) Failed() []int      { return transport.FailedOf(t.inner) }
func (t *tracer) Epoch() int         { return transport.EpochOf(t.inner) }

func (t *tracer) Readmit(peer int) error {
	ok, err := transport.Readmit(t.inner, peer)
	if !ok {
		return fmt.Errorf("bench: inner transport %T does not support readmission", t.inner)
	}
	return err
}

func (t *tracer) AdoptEpoch(epoch int, failed []int) {
	if r, ok := t.inner.(transport.Readmitter); ok {
		r.AdoptEpoch(epoch, failed)
	}
}

// clockTracer adds the virtual-time capabilities (simnet, faultnet).
type clockTracer struct{ *tracer }

func (t clockTracer) Now() float64           { return t.inner.(transport.Clock).Now() }
func (t clockTracer) Elapse(seconds float64) { t.inner.(transport.Clock).Elapse(seconds) }
func (t clockTracer) CarriesData() bool      { return transport.CarriesData(t.inner) }

func (t clockTracer) SendSize(to int, tag transport.Tag, n int) error {
	t0 := t.rec.now()
	err := t.inner.(transport.SizeSender).SendSize(to, tag, n)
	t.rec.leaf(kSend, t0, n, err)
	return err
}

func (t clockTracer) RecvSize(from int, tag transport.Tag, n int) (int, error) {
	t0 := t.rec.now()
	got, err := t.inner.(transport.SizeSender).RecvSize(from, tag, n)
	t.rec.leaf(kRecv, t0, 0, err)
	return got, err
}

func (t clockTracer) SendRecvSize(to int, stag transport.Tag, sn int, from int, rtag transport.Tag, rn int) (int, error) {
	t0 := t.rec.now()
	got, err := t.inner.(transport.SizeSender).SendRecvSize(to, stag, sn, from, rtag, rn)
	t.rec.leaf(kSendRecv, t0, sn, err)
	return got, err
}

// hinter is the set of structure hints icc.New reads off an endpoint.
type hinter interface {
	Machine() model.Machine
	TwoLevel() model.TwoLevel
	Hierarchy() model.Hierarchy
}

// hintTracer adds the machine and hierarchy hints (simnet).
type hintTracer struct{ clockTracer }

func (t hintTracer) Machine() model.Machine     { return t.inner.(hinter).Machine() }
func (t hintTracer) TwoLevel() model.TwoLevel   { return t.inner.(hinter).TwoLevel() }
func (t hintTracer) Hierarchy() model.Hierarchy { return t.inner.(hinter).Hierarchy() }

// clocked is what an endpoint must offer for clockTracer to forward it.
type clocked interface {
	transport.Clock
	transport.DataCarrier
	transport.SizeSender
}

// wrapTrace returns ep with every operation recorded on rec, offering
// exactly the optional capabilities ep offers.
func wrapTrace(ep transport.Endpoint, rec *recorder) transport.Endpoint {
	base := &tracer{inner: ep, rec: rec}
	if _, ok := ep.(clocked); !ok {
		return base
	}
	if _, ok := ep.(hinter); !ok {
		return clockTracer{base}
	}
	return hintTracer{clockTracer{base}}
}

// traceStats are the per-workload numbers read off a traced pass.
type traceStats struct {
	rounds        int
	msgs, bytes   int64 // world totals inside timed rounds
	uneven        bool  // some round moved a different number of messages than the first
	errors        int64
	roundTime     float64 // rank 0: Σ round spans
	selfTime      float64 // rank 0: Σ self time of the spans directly under a round
	selfSamples   []float64
	send, recv    float64 // rank 0: Σ transport time inside rounds, by kind
	sendrecv      float64
	callDurs      map[string][]float64 // rank 0: durations by "kind:name" of non-transport spans
	opDurs        map[string][]float64 // rank 0: by op name, first step's start to last step's end
	collectiveSum float64              // rank 0: Σ durations of spans directly under a round
}

// analyze reduces one pass's recorders: world totals over recs, rank 0's
// view over recs0 (one recorder per world the pass built).
func analyze(recs, recs0 []*recorder, rounds int) traceStats {
	st := traceStats{rounds: rounds, callDurs: map[string][]float64{}, opDurs: map[string][]float64{}}
	perRound := make([]int64, rounds)
	for _, r := range recs {
		for _, s := range r.spans {
			if !s.kind.transport() || s.round < 0 {
				continue
			}
			if s.failed {
				st.errors++
			}
			if s.kind != kRecv {
				st.msgs++
				st.bytes += int64(s.bytes)
				if int(s.round) < rounds {
					perRound[s.round]++
				}
			}
		}
	}
	for _, n := range perRound {
		st.uneven = st.uneven || n != perRound[0]
	}
	for _, r0 := range recs0 {
		st.rankZero(r0)
	}
	return st
}

func (st *traceStats) rankZero(r0 *recorder) {
	covered := make([]float64, len(r0.spans)) // time each span's direct children cover
	for _, s := range r0.spans {
		if s.parent >= 0 {
			p := r0.spans[s.parent]
			lo, hi := max(s.t0, p.t0), min(s.t1, p.t1)
			if hi > lo {
				covered[s.parent] += hi - lo
			}
		}
	}
	// An op's steps (Start then Wait; two issues then two waits) are
	// consecutive spans of one name directly under the round.
	var opName string
	var opRound int32
	var opT0, opT1 float64
	closeOp := func() {
		if opName != "" {
			st.opDurs[opName] = append(st.opDurs[opName], opT1-opT0)
		}
		opName = ""
	}
	defer closeOp()
	for i, s := range r0.spans {
		if s.round < 0 {
			continue
		}
		switch {
		case s.kind == kRound:
			st.roundTime += s.dur()
		case s.kind == kSend:
			st.send += s.dur()
		case s.kind == kRecv:
			st.recv += s.dur()
		case s.kind == kSendRecv:
			st.sendrecv += s.dur()
		default:
			key := kindNames[s.kind] + ":" + s.name
			st.callDurs[key] = append(st.callDurs[key], s.dur())
			if s.parent >= 0 && r0.spans[s.parent].kind == kRound {
				self := s.dur() - covered[i]
				st.selfTime += self
				st.selfSamples = append(st.selfSamples, self)
				st.collectiveSum += s.dur()
				if s.name != opName || s.round != opRound {
					closeOp()
					opName, opRound, opT0 = s.name, s.round, s.t0
				}
				opT1 = s.t1
			}
		}
	}
}

// opP50us returns the median in µs of rank 0's time in one op of the
// round, all its steps together.
func (st traceStats) opP50us(name string) float64 { return median(st.opDurs[name]) * 1e6 }

// generic fills the per-layer metrics every workload reports from a
// traced pass.
func (st traceStats) generic(v values) {
	n := float64(st.rounds)
	v.setN("icc.call_self_us", median(st.selfSamples)*1e6, len(st.selfSamples), 0)
	v.set("icc.self_share", st.selfTime/st.roundTime)
	v.set("transport.msgs_per_round", float64(st.msgs)/n)
	v.set("transport.bytes_per_round", float64(st.bytes)/n)
	v.set("transport.send_us_per_round", st.send/n*1e6)
	v.set("transport.recv_wait_us_per_round", st.recv/n*1e6)
	v.set("transport.sendrecv_us_per_round", st.sendrecv/n*1e6)
	v.set("transport.wait_share", (st.recv+st.sendrecv)/st.roundTime)
	v.set("transport.errors", float64(st.errors))
}

// p50us returns the median duration in µs of rank 0's spans of one kind
// and name.
func (st traceStats) p50us(kind spanKind, name string) float64 {
	return median(st.callDurs[kindNames[kind]+":"+name]) * 1e6
}

// kindP50us is p50us over every name of one kind.
func (st traceStats) kindP50us(kind spanKind) float64 {
	var all []float64
	prefix := kindNames[kind] + ":"
	for k, d := range st.callDurs {
		if len(k) > len(prefix) && k[:len(prefix)] == prefix {
			all = append(all, d...)
		}
	}
	return median(all) * 1e6
}

// maxTraceEvents caps the Chrome trace file; the metrics use every span.
const maxTraceEvents = 100000

// writeChromeTrace writes the first maxTraceEvents spans as Chrome
// trace-event JSON (chrome://tracing, Perfetto): one thread per rank.
func writeChromeTrace(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"traceEvents":[`)
	budget := maxTraceEvents / len(recs)
	first := true
	for _, r := range recs {
		for i, s := range r.spans {
			if i >= budget {
				break
			}
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			fmt.Fprintf(w, "\n{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"round\":%d}}",
				s.name, kindNames[s.kind], s.t0*1e6, s.dur()*1e6, r.rank, i, s.parent, s.round)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
