package icc

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/chantransport"
	"repro/internal/model"
	"repro/internal/simnet"
	"repro/internal/tcptransport"
)

// DefaultRecvTimeout bounds every point-to-point receive of a world whose
// construction does not say otherwise (WithRecvTimeout): long enough that
// no healthy collective ever trips it, short enough that a wedged world —
// a deadlocked schedule, a silently dead peer — fails in bounded time
// instead of hanging. The abort broadcast normally propagates failures in
// milliseconds; this timeout is the backstop detector for failures nobody
// observed directly.
const DefaultRecvTimeout = 30 * time.Second

// worldRecvTimeout resolves the receive timeout a set of communicator
// options asks for, by applying them to a probe: world options and
// communicator options share one Option type, so the world constructors
// must extract their part before building the transport.
func worldRecvTimeout(opts []Option) time.Duration {
	var probe Comm
	for _, o := range opts {
		o(&probe)
	}
	if probe.recvTimeout > 0 {
		return probe.recvTimeout
	}
	return DefaultRecvTimeout
}

// World runs SPMD programs over an in-process channel transport — the
// default functional substrate. Each rank is a goroutine.
type World struct {
	w    *chantransport.World
	opts []Option
	err  error // deferred construction error, surfaced by Run
}

// NewChannelWorld creates a p-rank in-process world. The options are
// applied to every rank's communicator. An invalid size (p < 1) is
// reported by Run rather than panicking at construction.
func NewChannelWorld(p int, opts ...Option) *World {
	w, err := chantransport.NewWorld(p, chantransport.WithRecvTimeout(worldRecvTimeout(opts)))
	return &World{w: w, opts: opts, err: err}
}

// Run executes fn once per rank, each with a whole-world communicator, and
// returns the first error by rank.
func (w *World) Run(fn func(c *Comm) error) error {
	if w.err != nil {
		return w.err
	}
	return w.w.Run(func(ep *chantransport.Endpoint) error {
		c, err := New(ep, w.opts...)
		if err != nil {
			return err
		}
		return fn(c)
	})
}

// TCPWorld runs SPMD programs over loopback TCP sockets inside one
// process — the sockets substrate under test conditions. Each rank is a
// goroutine owning one endpoint of a tcptransport mesh, so programs see
// real connection failures, reconnects and abort frames. Multi-process
// deployments use tcptransport.Listen/Connect directly.
type TCPWorld struct {
	p    int
	opts []Option
}

// NewTCPWorld creates a p-rank loopback TCP world. The options are
// applied to every rank's communicator; WithRecvTimeout configures the
// transport's receive timeout (DefaultRecvTimeout otherwise).
func NewTCPWorld(p int, opts ...Option) *TCPWorld {
	return &TCPWorld{p: p, opts: opts}
}

// Run builds the TCP mesh, executes fn once per rank, closes every
// endpoint, and returns the first error by rank.
func (w *TCPWorld) Run(fn func(c *Comm) error) error {
	eps, err := tcptransport.NewLocalWorld(w.p, tcptransport.WithRecvTimeout(worldRecvTimeout(w.opts)))
	if err != nil {
		return err
	}
	errs := make([]error, w.p)
	var wg sync.WaitGroup
	for r := 0; r < w.p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer eps[r].Close()
			defer func() {
				if v := recover(); v != nil {
					errs[r] = fmt.Errorf("panic: %v", v)
				}
			}()
			c, cerr := New(eps[r], w.opts...)
			if cerr != nil {
				errs[r] = cerr
				return
			}
			errs[r] = fn(c)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// SimResult reports a simulated run's virtual-time statistics.
type SimResult struct {
	// Seconds is the virtual completion time.
	Seconds float64
	// Messages counts point-to-point messages.
	Messages int64
}

// SimulateMesh runs fn once per node of a simulated rows×cols wormhole
// mesh with the given machine parameters, in virtual time. carryData
// selects whether payloads really move (set it when checking results;
// leave it false for large performance experiments). The communicator
// passed to fn is mesh-aware; extra options (e.g. WithAlg) are applied on
// top.
func SimulateMesh(rows, cols int, m Machine, carryData bool, fn func(c *Comm) error, opts ...Option) (SimResult, error) {
	if err := m.Validate(); err != nil {
		return SimResult{}, err
	}
	res, err := simnet.Run(simnet.Config{
		Rows: rows, Cols: cols, Machine: m, CarryData: carryData,
	}, func(ep *simnet.Endpoint) error {
		c, nerr := New(ep, append([]Option{WithMesh(rows, cols)}, opts...)...)
		if nerr != nil {
			return nerr
		}
		return fn(c)
	})
	if err != nil {
		return SimResult{}, err
	}
	return SimResult{Seconds: res.Time, Messages: res.Messages}, nil
}

// SimulateClusters runs fn once per node of a simulated two-level machine
// — SimulateHierarchy with a single level: nClusters clusters of
// perCluster ranks each. Messages between ranks of the same cluster pay
// local's α/β; messages crossing clusters pay global's α/β and share the
// cluster's single uplink/downlink — a modern node/NIC hierarchy. The
// communicator passed to fn sees the group as a linear array (the cluster
// structure is not a physical mesh the planner may exploit) and carries
// the two-level machine parameters, but no cluster partition: call
// c.WithClustersBySize(perCluster) (or WithClusters) inside fn to let the
// automatic policy choose the hierarchy, or force it with
// WithAlg(AlgHier).
func SimulateClusters(nClusters, perCluster int, local, global Machine, carryData bool, fn func(c *Comm) error, opts ...Option) (SimResult, error) {
	return SimulateHierarchy(nClusters*perCluster, []int{perCluster}, []Machine{global, local}, carryData, fn, opts...)
}

// SimulateHierarchy runs fn once per rank of a simulated N-level machine:
// p ranks in nested consecutive blocks of the given sizes, coarsest first
// (e.g. sizes 64, 8 is racks of 64 ranks containing nodes of 8). machines
// holds len(sizes)+1 machine parameter sets, coarsest first: machines[l]
// prices messages that first cross a level-l block boundary, and the last
// entry prices messages within one deepest block. Each block at each
// level owns a single shared uplink and downlink, so traffic crossing a
// boundary contends there — the structure that rewards composing
// collectives level by level. The communicator passed to fn sees the
// group as a linear array and carries the per-level machine parameters,
// but no partition: call c.WithTopologyBySizes(sizes...) inside fn to let
// the automatic policy choose the recursive hierarchy, or force it with
// WithAlg(AlgHier).
func SimulateHierarchy(p int, sizes []int, machines []Machine, carryData bool, fn func(c *Comm) error, opts ...Option) (SimResult, error) {
	if len(machines) != len(sizes)+1 {
		return SimResult{}, fmt.Errorf("icc: %d tree levels need %d machines, got %d", len(sizes), len(sizes)+1, len(machines))
	}
	levels := make([]simnet.Level, len(sizes))
	for l, sz := range sizes {
		levels[l] = simnet.Level{Size: sz, Alpha: machines[l].Alpha, Beta: machines[l].Beta}
	}
	res, err := simnet.Run(simnet.Config{
		Rows: 1, Cols: p, Machine: machines[len(sizes)],
		Levels: levels, CarryData: carryData,
	}, func(ep *simnet.Endpoint) error {
		c, nerr := New(ep, opts...)
		if nerr != nil {
			return nerr
		}
		return fn(c)
	})
	if err != nil {
		return SimResult{}, err
	}
	return SimResult{Seconds: res.Time, Messages: res.Messages}, nil
}

// ParagonMachine returns machine parameters similar to those of the Intel
// Paragon (§7.2), the default for simulations.
func ParagonMachine() Machine { return model.ParagonLike() }

// DeltaMachine returns machine parameters similar to those of the Intel
// Touchstone Delta (§11).
func DeltaMachine() Machine { return model.DeltaLike() }

// Errorf is a tiny convenience for SPMD programs building rank-prefixed
// errors.
func Errorf(c *Comm, format string, args ...any) error {
	return fmt.Errorf("rank %d: %s", c.Rank(), fmt.Sprintf(format, args...))
}
