package icc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/transport"
)

// Survivor recovery. An abort poisons the world (fault.go); this file is
// the way out: the survivors agree on who is dead (Agree), commit a new
// epoch without them (Shrink), and — on transports whose ranks can be
// restarted — readmit a returning rank (Readmit / Join).
//
// All recovery control traffic runs in the reserved tag namespace
// transport.RecoveryColl, which the transports exempt from the abort,
// stale-epoch and epoch-filter checks that fence ordinary collective
// traffic: the agreement must run *through* the poison it is trying to
// clear. A recovery receive also discards queued non-matching messages —
// the debris of collectives cut down by the abort, and of agreement
// attempts that were themselves cut down by a failure mid-protocol.

// ErrExpelled reports that the survivors' agreement named this rank
// failed. A false suspicion (a timeout blaming a slow but live rank) is
// indistinguishable from a death, so suspicion is death: an expelled rank
// must stop using the world. On the TCP transport it may restart and
// return via Rejoin/Join once the survivors call Readmit for it.
var ErrExpelled = errors.New("icc: rank expelled by survivor agreement")

// Recovery protocol phases (the phase field of recovery tags).
const (
	recPhView    = iota // participant → coordinator: local suspect set
	recPhCoord          // coordinator → participant: decide/commit stream
	recPhAck            // participant → coordinator: ack of a decide nonce
	recPhState          // leader → rejoiner: world state for readmission
	recPhJoinAck        // rejoiner → leader: state adopted
)

// Coordinator message kinds on the recPhCoord stream.
const (
	recStart  = byte(0) // a fresh attempt begins: send your suspect view
	recDecide = byte(1)
	recCommit = byte(2)
)

// recPatience is how many consecutive receive timeouts a participant
// tolerates on the coordinator stream before blaming the coordinator.
// The coordinator blames after a single timeout; the asymmetry keeps a
// participant whose wait started together with the coordinator's from
// racing it to the blame — the participant outwaits the coordinator's
// restart by a full timeout margin, so only a genuinely dead coordinator
// gets blamed.
const recPatience = 3

// recNonce numbers coordinator attempts process-wide. Monotonicity across
// restarts (including fresh Agree calls after a failed Shrink
// verification) is what lets participants tell a fresh decision from the
// queued debris of an earlier one.
var recNonce atomic.Uint32

func recTag(phase int) transport.Tag {
	return transport.Compose(transport.RecoveryColl, uint32(phase), 0)
}

// encodeSet serializes a rank set as a count followed by the ranks,
// little-endian uint32 each.
func encodeSet(ranks []int) []byte {
	b := make([]byte, 4+4*len(ranks))
	binary.LittleEndian.PutUint32(b, uint32(len(ranks)))
	for i, r := range ranks {
		binary.LittleEndian.PutUint32(b[4+4*i:], uint32(r))
	}
	return b
}

func decodeSet(b []byte) ([]int, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("icc: truncated rank set (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 0 || len(b) < 4+4*n {
		return nil, fmt.Errorf("icc: rank set claims %d ranks in %d bytes", n, len(b))
	}
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = int(binary.LittleEndian.Uint32(b[4+4*i:]))
	}
	return ranks, nil
}

func coordMsg(kind byte, nonce uint32, set []int) []byte {
	b := make([]byte, 5, 5+4+4*len(set))
	b[0] = kind
	binary.LittleEndian.PutUint32(b[1:], nonce)
	return append(b, encodeSet(set)...)
}

func parseCoordMsg(b []byte) (kind byte, nonce uint32, set []int, err error) {
	if len(b) < 5 {
		return 0, 0, nil, fmt.Errorf("icc: truncated coordinator message (%d bytes)", len(b))
	}
	set, err = decodeSet(b[5:])
	return b[0], binary.LittleEndian.Uint32(b[1:]), set, err
}

func containsRank(s []int, r int) bool {
	for _, x := range s {
		if x == r {
			return true
		}
	}
	return false
}

// knownFailed gathers every failure this rank currently knows of: the
// already-agreed dead set plus the ranks blamed by the current poison
// (or, on a stale endpoint, by the poison that ended its epoch).
func (c *Comm) knownFailed() []int {
	s := transport.FailedOf(c.ep)
	var ae *transport.AbortError
	if errors.As(transport.AbortErr(c.ep), &ae) {
		s = transport.MergeFailed(s, ae.Failed)
	}
	return s
}

// recFail annotates a recovery protocol step failure with the peer the
// step involved, so Agree can blame the right rank.
type recFail struct {
	peer int
	err  error
}

func (f *recFail) Error() string { return f.err.Error() }
func (f *recFail) Unwrap() error { return f.err }

// Agree runs a fault-tolerant agreement over the communicator's members
// and returns the failed set every completing member decided on. It
// tolerates fail-stop failures during the agreement itself: each attempt
// that loses a participant blames it and retries over the smaller
// roster. Agree runs through an existing poison (it is how a poisoned
// world recovers) and equally on a healthy world (proactively agreeing
// on an externally detected death).
//
// The protocol is a coordinator star over the live roster: the lowest
// unsuspected member opens each attempt with a START carrying a fresh
// nonce, collects every participant's nonce-echoing suspect view,
// decides the union, and commits once every participant acknowledged
// that exact decision. The nonce — monotone process-wide — is what lets
// both sides drain the debris of abandoned attempts instead of mistaking
// it for progress, and the START is what moves participants parked in a
// dead attempt into the next one without blaming a live coordinator. A
// member that finds itself in the decision still acknowledges — the
// survivors need the commit — and then returns ErrExpelled.
//
// Agree decides; it does not clear the poison. Shrink is the usual
// caller, pairing the decision with the epoch transition.
func (c *Comm) Agree() ([]int, error) {
	if _, ok := c.ep.(transport.Recoverer); !ok {
		return nil, fmt.Errorf("icc: endpoint %T does not support recovery", c.ep)
	}
	suspects := c.knownFailed()
	attempts := len(c.members) + 2
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		decided, err := c.agreeOnce(suspects)
		if err == nil {
			return decided, nil
		}
		if errors.Is(err, ErrExpelled) || errors.Is(err, ErrClosed) {
			return nil, err
		}
		var fatal bool
		if suspects, fatal = c.absorb(suspects, err); fatal {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("icc: agreement did not converge after %d attempts: %w", attempts, lastErr)
}

// absorb folds a failed protocol step into the suspect set and reports
// whether the failure is fatal to recovery on this rank. An abort raised
// elsewhere contributes its blamed set; a step that failed against a
// specific peer blames that peer and raises a restart abort so every
// other survivor wakes out of the doomed attempt; tag mismatches and
// stale-epoch verdicts are debris, retried without blame. Anything else
// (e.g. an injected local fault) means this rank itself is dying: it
// gasps an abort naming itself so the survivors learn, and gives up.
func (c *Comm) absorb(suspects []int, err error) ([]int, bool) {
	var ae *transport.AbortError
	if errors.As(err, &ae) {
		return transport.MergeFailed(suspects, ae.Failed), false
	}
	if errors.Is(err, transport.ErrTagMismatch) || errors.Is(err, transport.ErrStaleEpoch) {
		return suspects, false
	}
	var rf *recFail
	if errors.As(err, &rf) && (errors.Is(err, ErrPeerFailed) || errors.Is(err, ErrTimeout)) {
		s := transport.MergeFailed(suspects, []int{rf.peer})
		// The restart abort blames the suspects only — NewAbortError would
		// add this (live) rank to the failed set and get it expelled by
		// every survivor that reads the poison.
		transport.Abort(c.ep, &transport.AbortError{Origin: c.ep.Rank(), Failed: s,
			Reason: fmt.Sprintf("agreement restart: %v", rf.err)})
		return s, false
	}
	transport.Abort(c.ep, transport.NewAbortError(c.ep.Rank(),
		transport.MergeFailed(suspects, []int{c.ep.Rank()}),
		fmt.Sprintf("rank failed during agreement: %v", err)))
	return suspects, true
}

// agreeOnce runs one attempt of the agreement over the roster implied by
// the given suspect set.
func (c *Comm) agreeOnce(suspects []int) ([]int, error) {
	me := c.ep.Rank()
	if containsRank(suspects, me) {
		// Someone blamed this rank and the blame got here first; suspicion
		// is death, so bow out rather than fight the expulsion.
		return nil, fmt.Errorf("icc: rank %d suspected: %w", me, ErrExpelled)
	}
	alive := make([]int, 0, len(c.members))
	for _, r := range c.members {
		if !containsRank(suspects, r) {
			alive = append(alive, r)
		}
	}
	if me == alive[0] {
		return c.coordinate(alive, suspects)
	}
	return c.participate(alive[0], suspects)
}

func (c *Comm) coordinate(alive, suspects []int) ([]int, error) {
	nonce := recNonce.Add(1)
	start := coordMsg(recStart, nonce, nil)
	for _, r := range alive[1:] {
		if err := c.ep.Send(r, recTag(recPhCoord), start); err != nil {
			return nil, &recFail{peer: r, err: err}
		}
	}
	decided := append([]int(nil), suspects...)
	buf := make([]byte, 8+4*c.ep.Size())
	for _, r := range alive[1:] {
		for {
			n, err := c.ep.Recv(r, recTag(recPhView), buf)
			if err != nil {
				return nil, &recFail{peer: r, err: err}
			}
			if n < 4 {
				return nil, &recFail{peer: r, err: fmt.Errorf("icc: truncated view (%d bytes)", n)}
			}
			if binary.LittleEndian.Uint32(buf) != nonce {
				continue // a view for an abandoned attempt: drain
			}
			view, derr := decodeSet(buf[4:n])
			if derr != nil {
				return nil, &recFail{peer: r, err: derr}
			}
			decided = transport.MergeFailed(decided, view)
			break
		}
	}
	msg := coordMsg(recDecide, nonce, decided)
	for _, r := range alive[1:] {
		if err := c.ep.Send(r, recTag(recPhCoord), msg); err != nil {
			return nil, &recFail{peer: r, err: err}
		}
	}
	ack := make([]byte, 4)
	for _, r := range alive[1:] {
		for {
			n, err := c.ep.Recv(r, recTag(recPhAck), ack)
			if err != nil {
				return nil, &recFail{peer: r, err: err}
			}
			if n >= 4 && binary.LittleEndian.Uint32(ack) == nonce {
				break
			}
			// An ack of an earlier attempt: drain and keep waiting.
		}
	}
	// Commit point: every live member acknowledged this exact decision.
	// From here the decision stands, so commit delivery is best effort —
	// a participant that dies now is simply also dead in the new epoch,
	// and the next agreement will say so.
	msg = coordMsg(recCommit, nonce, decided)
	for _, r := range alive[1:] {
		_ = c.ep.Send(r, recTag(recPhCoord), msg)
	}
	if containsRank(decided, c.ep.Rank()) {
		return nil, fmt.Errorf("icc: rank %d decided failed: %w", c.ep.Rank(), ErrExpelled)
	}
	return decided, nil
}

func (c *Comm) participate(coord int, suspects []int) ([]int, error) {
	buf := make([]byte, 16+4*c.ep.Size())
	var decided []int
	var adopted uint32
	haveAdopted := false
	timeouts := 0
	for {
		n, err := c.ep.Recv(coord, recTag(recPhCoord), buf)
		if err != nil {
			if errors.Is(err, ErrTimeout) && !errors.Is(err, ErrPeerFailed) {
				if timeouts++; timeouts < recPatience {
					continue // outwait a live coordinator's own detection timeout
				}
			}
			return nil, &recFail{peer: coord, err: err}
		}
		timeouts = 0
		kind, nonce, set, err := parseCoordMsg(buf[:n])
		if err != nil {
			return nil, &recFail{peer: coord, err: err}
		}
		switch kind {
		case recStart:
			view := make([]byte, 4, 4+4+4*len(suspects))
			binary.LittleEndian.PutUint32(view, nonce)
			view = append(view, encodeSet(suspects)...)
			if err := c.ep.Send(coord, recTag(recPhView), view); err != nil {
				return nil, &recFail{peer: coord, err: err}
			}
		case recDecide:
			if haveAdopted && nonce <= adopted {
				continue // debris of an attempt we already moved past
			}
			decided, adopted, haveAdopted = set, nonce, true
			a := make([]byte, 4)
			binary.LittleEndian.PutUint32(a, nonce)
			if err := c.ep.Send(coord, recTag(recPhAck), a); err != nil {
				return nil, &recFail{peer: coord, err: err}
			}
		case recCommit:
			if !haveAdopted || nonce != adopted {
				continue // commit of a decision we never adopted: stale
			}
			if containsRank(decided, c.ep.Rank()) {
				return nil, fmt.Errorf("icc: rank %d decided failed: %w", c.ep.Rank(), ErrExpelled)
			}
			return decided, nil
		}
	}
}

// Epoch returns the world epoch this communicator belongs to. A fresh
// world is epoch 0; every Shrink or Readmit advances it by one. A
// communicator whose epoch is older than the transport's current epoch
// fails every operation with ErrStaleEpoch.
func (c *Comm) Epoch() int { return c.epoch }

// Shrink recovers the world past an abort: the survivors agree on the
// failed set, commit the next epoch without them (clearing the poison and
// fencing out the old epoch's traffic), and receive a successor
// communicator over the survivors re-ranked contiguously, with the dead
// members dropped from any attached cluster partition or topology (empty
// blocks collapse) and fresh plan caches. The successor runs every
// collective — blocking, non-blocking and persistent; the old
// communicator permanently fails with ErrStaleEpoch.
//
// Shrink does not verify the new epoch with a barrier: the agreement's
// commit point already guarantees every surviving member acknowledged the
// exact decision, and a verification round would only add a new failure
// window (a member dying mid-barrier leaves some survivors verified and
// others re-agreeing, with their epochs diverging). A member that dies
// after acknowledging simply fails the successor's next collective, and
// the survivor loop shrinks again. Shrink also works on a healthy world
// whose failed set grew via Reset — or shrinks nothing at all, merely
// rotating the epoch.
//
// A rank that was blamed — truly dead or falsely suspected — gets
// ErrExpelled and must stop using the world (suspicion is death). As with
// all collectives, every live member must call Shrink together; the usual
// pattern is a survivor loop that calls Shrink whenever a collective
// fails with ErrAborted.
func (c *Comm) Shrink() (*Comm, error) {
	failed, err := c.Agree()
	if err != nil {
		return nil, err
	}
	transport.Reset(c.ep, failed)
	return c.shrunk(failed)
}

// shrunk builds the successor communicator over the members not in
// failed, stamped with the endpoint's (post-Reset) epoch.
func (c *Comm) shrunk(failed []int) (*Comm, error) {
	members := make([]int, 0, len(c.members))
	keep := make([]int, 0, len(c.members))
	for i, r := range c.members {
		if !containsRank(failed, r) {
			members = append(members, r)
			keep = append(keep, i)
		}
	}
	me := group.Index(members, c.ep.Rank())
	if me < 0 {
		return nil, fmt.Errorf("icc: rank %d decided failed: %w", c.ep.Rank(), ErrExpelled)
	}
	phys := c.layout
	if len(c.members) != c.ep.Size() {
		phys = group.Linear(c.ep.Size())
	}
	sub, _ := group.DetectStructure(members, phys)
	s := c.derive(members, me, sub)
	s.epoch = transport.EpochOf(c.ep)
	if c.hasTopo {
		levels := c.topo.Assignments()
		for l, asg := range levels {
			row := make([]int, 0, len(keep))
			for _, i := range keep {
				row = append(row, asg[i])
			}
			levels[l] = row
		}
		t, err := group.NewTopology(levels...)
		if err != nil {
			return nil, err
		}
		s.attach(t)
	}
	return s, nil
}

// joinState is the world state the leader ships to a rejoining rank so
// that both sides construct the same successor communicator: the epoch
// and dead set to adopt, the member list, the context-id allocator
// position, and the calibration profile the survivors plan with.
type joinState struct {
	Epoch   int           `json:"epoch"`
	Failed  []int         `json:"failed"`
	Members []int         `json:"members"`
	Seq     uint32        `json:"seq"`
	Machine model.Machine `json:"machine"`
	Prov    string        `json:"prov"`
	HasMach bool          `json:"has_mach"`
}

// Readmit brings a previously failed, restarted rank back into the
// world. Every member of c calls Readmit(rank) together while the
// returning rank — already rejoined at the transport level, e.g. via
// tcptransport.Rejoin — calls Join. The transport link is replaced, the
// leader (lowest surviving rank) ships the rejoiner the world state, and
// every party returns the same successor communicator including the
// rejoiner at its original world rank. The successor is flat — structure
// (WithClusters/WithTopology) and a non-default algorithm policy must be
// re-attached afterwards, identically on every member — and is verified
// with a barrier before it is returned.
func (c *Comm) Readmit(rank int) (*Comm, error) {
	if err := c.guard(); err != nil {
		return nil, err
	}
	if rank < 0 || rank >= c.ep.Size() {
		return nil, fmt.Errorf("icc: readmit of rank %d outside world of %d", rank, c.ep.Size())
	}
	if containsRank(c.members, rank) {
		return nil, fmt.Errorf("icc: readmit of rank %d, already a member", rank)
	}
	rm, ok := c.ep.(transport.Readmitter)
	if !ok {
		return nil, fmt.Errorf("icc: endpoint %T does not support readmission", c.ep)
	}
	if err := rm.Readmit(rank); err != nil {
		return nil, err
	}
	members := transport.MergeFailed(c.members, []int{rank}) // sorted union
	if c.ep.Rank() == c.members[0] {
		st := joinState{
			Epoch:   transport.EpochOf(c.ep),
			Failed:  transport.FailedOf(c.ep),
			Members: members,
			Seq:     c.seq.Load(),
			Machine: c.mach,
			Prov:    c.machProv,
			HasMach: c.hasMach,
		}
		b, err := json.Marshal(st)
		if err != nil {
			return nil, err
		}
		if err := c.ep.Send(rank, recTag(recPhState), b); err != nil {
			return nil, fmt.Errorf("icc: readmit state send: %w", err)
		}
		one := make([]byte, 1)
		if _, err := c.ep.Recv(rank, recTag(recPhJoinAck), one); err != nil {
			return nil, fmt.Errorf("icc: readmit ack: %w", err)
		}
	}
	s, err := rejoinComm(c.ep, c.seq, members, c.mach, c.hasMach, c.machProv)
	if err != nil {
		return nil, err
	}
	if err := s.Barrier(); err != nil {
		return nil, fmt.Errorf("icc: readmit barrier: %w", err)
	}
	return s, nil
}

// Join completes a restarted rank's return to the world. The caller
// rebuilds its transport endpoint first (for TCP, tcptransport.Rejoin)
// while the survivors call Readmit; Join receives the world state from
// the leader — the lowest surviving rank — adopts its epoch, dead set and
// calibration profile, and returns the same successor communicator the
// survivors hold.
func Join(ep transport.Endpoint, leader int) (*Comm, error) {
	buf := make([]byte, 1<<20)
	n, err := ep.Recv(leader, recTag(recPhState), buf)
	if err != nil {
		return nil, fmt.Errorf("icc: join state recv: %w", err)
	}
	var st joinState
	if err := json.Unmarshal(buf[:n], &st); err != nil {
		return nil, fmt.Errorf("icc: join state decode: %w", err)
	}
	if rm, ok := ep.(transport.Readmitter); ok {
		rm.AdoptEpoch(st.Epoch, st.Failed)
	}
	if err := ep.Send(leader, recTag(recPhJoinAck), []byte{1}); err != nil {
		return nil, fmt.Errorf("icc: join ack: %w", err)
	}
	seq := &atomic.Uint32{}
	seq.Store(st.Seq)
	c, err := rejoinComm(ep, seq, st.Members, st.Machine, st.HasMach, st.Prov)
	if err != nil {
		return nil, err
	}
	if err := c.Barrier(); err != nil {
		return nil, fmt.Errorf("icc: join barrier: %w", err)
	}
	return c, nil
}

// rejoinComm builds the flat communicator every member — survivors and
// rejoiner alike — constructs identically after a readmission. It is
// deterministic from the member list, machine and allocator position
// alone: layout detection runs over a linear physical view and the
// policy resets to AlgAuto, because the rejoiner has no way to recover
// the survivors' richer local state.
func rejoinComm(ep transport.Endpoint, seq *atomic.Uint32, members []int,
	mach model.Machine, hasMach bool, prov string) (*Comm, error) {
	me := group.Index(members, ep.Rank())
	if me < 0 {
		return nil, fmt.Errorf("icc: rank %d is not in the readmitted member list %v", ep.Rank(), members)
	}
	sub, _ := group.DetectStructure(members, group.Linear(ep.Size()))
	c := &Comm{
		ep:       ep,
		members:  members,
		me:       me,
		layout:   sub,
		mach:     mach,
		hasMach:  hasMach,
		machProv: prov,
		alg:      AlgAuto,
		seq:      seq,
		epoch:    transport.EpochOf(ep),
	}
	c.planner = model.NewPlanner(c.mach)
	c.planner.SetProvenance(prov)
	c.ctxID = seq.Add(1) & 0x7f
	return c, nil
}
