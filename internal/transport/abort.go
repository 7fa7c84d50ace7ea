package transport

import (
	"errors"
	"fmt"
	"sort"
)

// Failure taxonomy shared by every transport. The collective layer and
// applications test these with errors.Is; each transport wraps them with
// rank- and link-specific detail.
var (
	// ErrTimeout reports an operation that exceeded its deadline — a
	// receive that outlived the world's receive timeout, or a connection
	// that could not be re-established within its heal window. Timeouts
	// are how failures are detected when no out-of-band notification
	// arrives, so a timeout usually precedes an abort broadcast.
	ErrTimeout = errors.New("transport: timed out")
	// ErrPeerFailed reports that another rank of the world failed — it
	// fail-stopped, its connection died for good, or it originated an
	// abort. Not retryable: the world has lost a member.
	ErrPeerFailed = errors.New("transport: peer failed")
	// ErrAborted reports that the world was aborted out-of-band: some
	// rank's collective step failed and the failure was propagated so
	// that no peer blocks until its full receive timeout. Every operation
	// on an aborted endpoint fails with an error wrapping ErrAborted.
	ErrAborted = errors.New("transport: aborted")
	// ErrStaleEpoch reports an operation attempted by an endpoint (or on
	// a communicator) whose epoch predates the world's: an abort was
	// raised and cleared while this party was not looking. The operation
	// error also wraps the abort that ended the stale epoch, so the
	// failure information travels with the staleness verdict.
	ErrStaleEpoch = errors.New("transport: stale epoch")
)

// AbortError is the typed form of the error every rank of an aborted
// world observes. Origin is the rank that raised the abort; Failed is the
// set of world ranks the origin believed dead when it raised it — the
// peer a PeerError blamed, or the origin itself when it gasps about a
// local failure. Reason preserves the underlying cause as text.
//
// AbortError wraps both ErrAborted (the world died out-of-band) and
// ErrPeerFailed (some member failed), so existing errors.Is tests keep
// working; recovery code uses errors.As to extract the failed set
// programmatically instead of parsing message strings.
type AbortError struct {
	Origin int
	Failed []int
	Reason string
}

// Error renders the abort with its origin, failed set and cause.
func (e *AbortError) Error() string {
	if len(e.Failed) <= 1 {
		return fmt.Sprintf("%v: %v: rank %d: %s", ErrAborted, ErrPeerFailed, e.Origin, e.Reason)
	}
	return fmt.Sprintf("%v: %v: rank %d (failed %v): %s", ErrAborted, ErrPeerFailed, e.Origin, e.Failed, e.Reason)
}

// Unwrap exposes the sentinel pair so errors.Is(err, ErrAborted) and
// errors.Is(err, ErrPeerFailed) both hold.
func (e *AbortError) Unwrap() []error { return []error{ErrAborted, ErrPeerFailed} }

// NewAbortError builds an AbortError with a normalized failed set: the
// origin is always included, duplicates are dropped, and the set is
// sorted so two aborts over the same ranks compare equal.
func NewAbortError(origin int, failed []int, reason string) *AbortError {
	set := make(map[int]bool, len(failed)+1)
	set[origin] = true
	for _, r := range failed {
		set[r] = true
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return &AbortError{Origin: origin, Failed: out, Reason: reason}
}

// PeerError attributes an operation failure to a specific peer: the
// receive that timed out waiting for it, the link to it that died, the
// operation aimed at it after it was agreed dead. Transports wrap such
// failures in a PeerError so an abort raised from them blames the failed
// peer — not the rank that happened to detect the failure, which would
// get the detector expelled by the survivor agreement.
type PeerError struct {
	Peer int
	Err  error
}

func (e *PeerError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying failure so errors.Is keeps seeing the
// sentinel (ErrTimeout, ErrPeerFailed, ...) the transport wrapped.
func (e *PeerError) Unwrap() error { return e.Err }

// ToAbortError coerces an arbitrary abort reason into a typed AbortError.
// If the reason already carries one (a peer's broadcast being re-raised
// locally), its origin and failed set are preserved. If it attributes the
// failure to a specific peer (PeerError), that peer alone is blamed — the
// origin merely detected the death. Otherwise the failure is local and
// the abort is a dying gasp: origin blames itself.
func ToAbortError(origin int, reason error) *AbortError {
	var ae *AbortError
	if errors.As(reason, &ae) {
		// Preserve the abort exactly: its failed set is the origin's
		// verdict, and need not include the origin (an agreement-restart
		// abort blames the suspects, not its live raiser).
		return ae
	}
	var pe *PeerError
	if errors.As(reason, &pe) {
		return &AbortError{Origin: origin, Failed: []int{pe.Peer}, Reason: reason.Error()}
	}
	if errors.Is(reason, ErrTruncate) || errors.Is(reason, ErrTagMismatch) {
		// Shape confusion: the queue holds debris of a collective cut down
		// mid-flight somewhere — evidence that the world is dying, not that
		// this rank (or the sender) is dead. Poison the world but blame
		// nobody; the rank that actually died gasps its own abort, and the
		// survivor agreement finds any silent death by timeout.
		return &AbortError{Origin: origin, Failed: nil, Reason: reason.Error()}
	}
	return NewAbortError(origin, []int{origin}, reason.Error())
}

// MergeFailed returns the sorted union of two failed-rank sets.
func MergeFailed(a, b []int) []int {
	set := make(map[int]bool, len(a)+len(b))
	for _, r := range a {
		set[r] = true
	}
	for _, r := range b {
		set[r] = true
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// SubsetOf reports whether every rank in sub appears in the sorted set
// super. Transports use it to suppress re-poisoning by late abort
// duplicates that carry no news relative to the already-agreed dead set.
func SubsetOf(sub, super []int) bool {
	for _, r := range sub {
		i := sort.SearchInts(super, r)
		if i >= len(super) || super[i] != r {
			return false
		}
	}
	return true
}

// Aborter is implemented by endpoints that support bounded-time failure
// propagation. Abort broadcasts an out-of-band abort to every peer of the
// world (best effort, on a dedicated control channel outside the
// collective tag space) and poisons the local endpoint: every pending and
// future operation returns an error wrapping ErrAborted promptly, instead
// of blocking until its receive timeout. Abort is idempotent per poison
// generation; the first reason wins and later reasons merge their failed
// sets into it.
type Aborter interface {
	Abort(reason error)
	// AbortErr returns the poisoning error once the endpoint has been
	// aborted (locally or by a peer's broadcast), nil otherwise.
	AbortErr() error
}

// Recoverer is implemented by endpoints that can clear an abort and move
// the world to a new epoch — the transport half of the survivor-recovery
// protocol (Comm.Agree / Comm.Shrink build on it).
type Recoverer interface {
	// Reset acknowledges the current poison, marks the given world ranks
	// failed (operations aimed at them fail fast with ErrPeerFailed), and
	// moves this endpoint into the next epoch. Messages stamped with an
	// older epoch are discarded by Recv, so traffic from collectives cut
	// down mid-flight cannot leak into the new epoch. Reset with the
	// world healthy only records the failed set.
	Reset(failed []int)
	// Failed returns the sorted set of world ranks this endpoint
	// currently treats as dead.
	Failed() []int
	// Epoch returns the endpoint's current epoch — the number of poison
	// generations it has moved past. Communicators stamp the epoch at
	// construction and refuse to run once the endpoint has moved on.
	Epoch() int
}

// Readmitter is implemented by transports whose ranks can be restarted
// and readmitted after a fail-stop (currently the TCP transport). The
// survivor side calls Readmit for the returning rank; the returning rank
// applies the survivors' state sync with AdoptEpoch.
type Readmitter interface {
	// Readmit replaces the link to a killed-and-restarted peer with a
	// fresh one and removes the peer from the dead set; sends to it
	// buffer until the connection establishes.
	Readmit(peer int) error
	// AdoptEpoch fast-forwards this (rejoined) endpoint to the given
	// epoch and failed set so its frames align with the survivors'.
	AdoptEpoch(epoch int, failed []int)
}

// Readmit readmits peer through ep if the transport supports rank
// restarts, reporting whether it does.
func Readmit(ep Endpoint, peer int) (bool, error) {
	if r, ok := ep.(Readmitter); ok {
		return true, r.Readmit(peer)
	}
	return false, nil
}

// Reset clears ep's poison and marks failed ranks dead if the endpoint
// supports recovery, reporting whether it does.
func Reset(ep Endpoint, failed []int) bool {
	if r, ok := ep.(Recoverer); ok {
		r.Reset(failed)
		return true
	}
	return false
}

// EpochOf returns ep's current epoch, or 0 for transports without
// recovery support (their single epoch never ends).
func EpochOf(ep Endpoint) int {
	if r, ok := ep.(Recoverer); ok {
		return r.Epoch()
	}
	return 0
}

// FailedOf returns the failed set ep currently knows, or nil.
func FailedOf(ep Endpoint) []int {
	if r, ok := ep.(Recoverer); ok {
		return r.Failed()
	}
	return nil
}

// Abort broadcasts an abort through ep if it supports failure
// propagation, and is a no-op otherwise. It reports whether the endpoint
// accepted the abort.
func Abort(ep Endpoint, reason error) bool {
	if a, ok := ep.(Aborter); ok {
		a.Abort(reason)
		return true
	}
	return false
}

// AbortErr returns ep's poisoning error, or nil when the endpoint is not
// aborted (or cannot be).
func AbortErr(ep Endpoint) error {
	if a, ok := ep.(Aborter); ok {
		return a.AbortErr()
	}
	return nil
}

// AbortOnError converts a failed collective step into a world abort: the
// first rank whose step errors broadcasts so that every peer blocked in
// the same collective returns within the transport's propagation bound
// rather than waiting out its receive timeout. Errors that already carry
// ErrAborted are not rebroadcast (they are the propagation). The error is
// returned unchanged either way.
func AbortOnError(ep Endpoint, err error) error {
	if err == nil {
		return nil
	}
	if !errors.Is(err, ErrAborted) {
		Abort(ep, err)
	}
	return err
}
