// Package transport defines the point-to-point layer underneath the
// collective library. The paper (§11) reports that porting InterCom between
// the Touchstone Delta, the Paragon and the iPSC/860 required changing only
// the message send and receive calls plus a few machine parameters; this
// interface is that seam. The same collective algorithm code runs over
//
//   - an in-process channel transport (package chantransport),
//   - a TCP socket transport (package tcptransport), and
//   - a discrete-event wormhole-mesh simulator (package simnet) that carries
//     virtual time, standing in for the 512-node Paragon.
package transport

import (
	"errors"
	"fmt"
)

// Endpoint is one rank's connection to a world of Size ranks, numbered
// 0..Size-1. Implementations must allow Send and Recv to proceed
// concurrently on the same endpoint (the paper's machine model: a node can
// send and receive simultaneously, but only to/from one node at a time);
// SendRecv expresses exactly that concurrency and is the only way the
// collective algorithms overlap the two.
//
// Message matching is FIFO per (sender, receiver) pair. Tags do not select
// messages; they are integrity checks: a receive whose tag differs from the
// matched message's tag fails with ErrTagMismatch. Collectives use tags to
// detect algorithm bugs (mismatched phases) early.
type Endpoint interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the world.
	Size() int
	// Send transmits p to rank to. It blocks at least until the message is
	// buffered for delivery; virtual-time transports block until delivery.
	Send(to int, tag Tag, p []byte) error
	// Recv receives the next message from rank from into p and returns its
	// length. The matched message must carry the given tag and must fit in
	// p, otherwise an error is returned.
	Recv(from int, tag Tag, p []byte) (int, error)
	// SendRecv performs Send(to, stag, sp) and Recv(from, rtag, rp)
	// concurrently, returning the received length. It must not deadlock
	// when every rank of a ring calls it simultaneously, however little
	// the transport buffers: neither half may wait for the other. If both
	// halves fail, the receive's error is the one returned.
	SendRecv(to int, stag Tag, sp []byte, from int, rtag Tag, rp []byte) (int, error)
	// Close releases the endpoint. Further operations fail.
	Close() error
}

// Tag labels a message with the collective phase that produced it.
// See package-level documentation for matching semantics.
type Tag uint32

// Clock is implemented by virtual-time endpoints (the simulator). Now
// reports the endpoint's local virtual time in seconds; Elapse advances it,
// modelling local computation (the paper's γ term).
type Clock interface {
	Now() float64
	Elapse(seconds float64)
}

// Elapse charges d seconds of local computation on ep if it keeps virtual
// time, and is a no-op otherwise. Collective algorithms call it around
// combine arithmetic so that simulated runs account for γ.
func Elapse(ep Endpoint, seconds float64) {
	if c, ok := ep.(Clock); ok {
		c.Elapse(seconds)
	}
}

// DataCarrier is implemented by endpoints that can report whether message
// payloads are actually transported. The simulator can run in timing-only
// mode where buffers are not copied (so that multi-megabyte experiments on
// hundreds of simulated nodes cost no real memory bandwidth); collectives
// then skip payload copies and combine arithmetic but still charge γ.
type DataCarrier interface {
	CarriesData() bool
}

// CarriesData reports whether payload bytes sent through ep actually arrive.
// All real transports carry data; only the simulator in timing-only mode
// does not.
func CarriesData(ep Endpoint) bool {
	if dc, ok := ep.(DataCarrier); ok {
		return dc.CarriesData()
	}
	return true
}

// Errors shared by transport implementations.
var (
	// ErrTagMismatch reports that the matched message's tag differed from
	// the tag the receiver expected.
	ErrTagMismatch = errors.New("transport: tag mismatch")
	// ErrTruncate reports that a matched message did not fit in the
	// receive buffer.
	ErrTruncate = errors.New("transport: message longer than receive buffer")
	// ErrClosed reports an operation on a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrRank reports a send or receive aimed at a rank outside [0, Size).
	ErrRank = errors.New("transport: rank out of range")
)

// CheckPeer validates that peer is a legal counterpart for an operation on
// an endpoint with the given rank and size. Self-messages are permitted
// (some degenerate group collectives send to self).
func CheckPeer(rank, size, peer int) error {
	if peer < 0 || peer >= size {
		return fmt.Errorf("%w: peer %d, world size %d (rank %d)", ErrRank, peer, size, rank)
	}
	return nil
}
