// Package icc is a high-performance collective communication library — a
// from-scratch Go reproduction of the InterCom library of Barnett, Shuler,
// Gupta, Payne, van de Geijn and Watts ("Building a High-Performance
// Collective Communication Library", SC 1994).
//
// The library provides the seven collective operations of the paper's
// Table 1 — broadcast, scatter, gather, collect (all-gather),
// combine-to-one (reduce), distributed combine (reduce-scatter) and
// combine-to-all (all-reduce) — implemented from a small set of
// conflict-free building blocks:
//
//   - short-vector primitives (§4.1): minimum-spanning-tree broadcast,
//     combine-to-one, scatter and gather, each ⌈log₂p⌉ steps on any group
//     size (no power-of-two requirement);
//   - long-vector primitives (§4.2): bucket (ring) collect and bucket
//     distributed combine, which trade latency for asymptotically optimal
//     bandwidth.
//
// Between the two extremes lie the hybrid algorithms of §6: the group is
// viewed as a logical d1×…×dk mesh and each dimension runs a long-vector
// stage on the way in, the short-vector algorithm at the switch point, and
// a long-vector stage on the way out. An analytic α+nβ+nγ cost model
// (package internal/model) selects the best hybrid for every vector length
// automatically, which is what makes one library perform well "for various
// sized vectors and grid dimensions, including non-power-of-two grids".
//
// Collectives run over any point-to-point transport implementing
// internal/transport.Endpoint: in-process channels, TCP sockets, or the
// discrete-event wormhole-mesh simulator (internal/simnet) that stands in
// for the paper's 512-node Intel Paragon.
//
// Group collective communication (§9) works exactly as in the paper: a
// communicator is an ordered member list providing the logical-to-physical
// mapping, and sub-communicators (rows, columns, arbitrary subsets) run
// the same algorithms, planned against their detected physical structure.
//
// # Hierarchical collectives
//
// Modern machines nest: ranks sharing a node communicate through memory
// (low α, high bandwidth), ranks on different nodes through a NIC that
// every rank of the node shares, nodes sit in racks behind a slower
// network still. Comm.WithTopology declares any number of nested
// partition levels, coarsest first (WithTopologyBySizes is the
// block-major shorthand), and the library composes collectives
// hierarchically from the same building blocks: an intra-block phase at
// the deepest level, one leader phase per coarser level among one
// representative per block, and the fan-out back down — broadcast,
// reduce, all-reduce, collect, reduce-scatter and all-to-all all have
// hierarchical forms, and each phase independently picks its short or
// long algorithm. Partitions may be arbitrary (uneven sizes,
// non-contiguous placement such as round-robin ranks).
//
// A cluster partition is a depth-1 topology: the rank→node map declared
// with Comm.WithClusters (or WithClustersBySize) is WithTopology with a
// single level, and the two-level machine of WithTwoLevel(local, global)
// is WithMachines(global, local). There is one representation, one cost
// model and one executor; the two-level names are conveniences.
//
// Per-level machine parameters attach with WithMachines (coarsest first,
// deepest last) or come from a profile or a simulated endpoint. The
// recursive cost model (model.Hierarchy) prices the whole tree against the
// best flat hybrid — flat collectives are planned as structure-blind
// linear arrays with the coarsest level's parameters, which is all the
// library can honestly assume when the partition is the only declared
// structure — and against shallower compositions, so AlgAuto switches to
// the hierarchy exactly when the model predicts a win and uses exactly as
// many levels as pay for themselves. AlgHier forces it.
//
//	h, _ := c.WithTopologyBySizes(64, 8) // racks of 64, nodes of 8
//	// or c.WithClustersBySize(8): nodes of 8 only, node-major
//	h.AllReduce(send, recv, n, icc.Float64, icc.Sum)
//
// Two refinements matter at depth. The leader phase of a hierarchical
// all-reduce is striped: the vector is reduce-scattered across a
// block's members first, the members run the coarser-level all-reduce
// on disjoint stripes concurrently, and a collect reassembles — the
// shared uplink carries each byte once instead of once per leader hop
// (WithUnstripedHier disables it for comparison). And the ragged
// exchange AllToAllv composes hierarchically too: leaders allgather the
// per-pair count matrix, then trade aggregated cluster-pair blocks, so
// the shared links see Θ(K²) messages instead of Θ(p²).
//
// SimulateHierarchy runs SPMD programs on a simulated switched tree in
// which messages crossing a level-l boundary pay that level's slower α/β
// and each block at each level owns one uplink and one downlink, so deep
// traffic contends on every boundary it crosses; SimulateClusters is its
// one-level case. cmd/hiersweep sweeps flat versus hierarchical across
// scales and placements, and with -levels flat versus 2-level versus
// N-level.
//
// # Complete exchange (all-to-all)
//
// Comm.AllToAll performs the one dense pattern Table 1 lacks: every rank
// sends a personalized block to every other rank — the distributed
// transpose underlying FFTs and matrix redistribution. Like the Table 1
// operations it has a short-vector and a long-vector algorithm, selected
// analytically per call:
//
//   - short vectors: a Bruck-style store-and-forward relay that finishes
//     in ⌈log₂p⌉ steps, each moving about half the vector;
//   - long vectors: a ring-rotation pairwise exchange — at step t each
//     rank trades one block with the ranks ±t around the ring — taking
//     p−1 steps but moving every byte exactly once.
//
// The model prices the two (model.ShortAllToAll, model.LongAllToAll) and
// AlgAuto picks the crossover; AlgShort and AlgLong force the endpoints.
// On clustered communicators the exchange also composes hierarchically:
// members hand their vectors to the cluster leader, leaders trade Θ(K)
// aggregated cluster-pair blocks over the shared NIC instead of the Θ(p)
// per-rank messages a flat schedule pays, and leaders redistribute the
// reassembled results — for arbitrary placements, since packing is by
// cluster membership rather than index runs.
//
// Comm.AllToAllv is the ragged-count variant (per-pair element counts, as
// in MPI_Alltoallv). Under AlgAuto its blocks travel directly via the
// pairwise schedule — aggregating other ranks' blocks needs the full
// count matrix, which no single rank holds. Forcing AlgHier on a
// partitioned communicator buys that matrix: the ranks all-gather the
// per-pair counts first, then run the same aggregated cluster-pair
// exchange as AllToAll, zeros and all.
//
// # Execution model: every call is a plan lookup and Plan.Execute
//
// The paper's algorithms are data-oblivious: once the group, the shape,
// the root and the byte layout are fixed, so are the sends, receives,
// combines and copies a rank performs. The library therefore has one way to
// execute a collective. The first call with a given signature — collective,
// counts, type, op, root — runs the analytic planner, has internal/core
// build the chosen hybrid's complete step sequence as a Plan (the
// algorithms there are pure builders: they never see a transport or a
// payload), and caches it on the communicator; every call, first or
// later, then binds the plan to its buffers and runs Plan.Execute, the
// only code that touches the transport. A warmed call re-derives no
// shape, coordinate or offset, stages through pooled buffers and
// allocates nothing. Per-rank count vectors (Scatterv, Gatherv, Collectv,
// ReduceScatter, AllToAllv) are part of the signature; the cache holds a
// bounded number of plans and PlanCacheStats reports entries, hits and
// misses. The one schedule that does depend on data, the hierarchical
// AllToAllv, is two plans: a cached all-gather of the count matrix, then
// an exchange plan built from it for that call.
//
// The three completion modes are three uses of the same bound plan. A
// blocking call runs it on the caller's goroutine. Every fixed-count
// collective also has a non-blocking variant (IBcast, IAllReduce, …),
// which hands it to the communicator's progress goroutine and returns a
// *Request immediately, and a persistent form (BcastInit, AllReduceInit, …
// returning a *Persistent handle driven by Start and Wait), which keeps
// it.
//
// # Non-blocking and persistent collectives
//
// Handle lifecycle: an Init call validates its arguments, finds (or
// builds) the plan, and pins the argument buffers — but communicates
// nothing. Start begins one execution, reading the send buffer as of
// that moment; Wait (or a successful Test) completes it, after which the
// same handle may be Started again any number of times. Free releases
// the handle; the plan itself stays cached on the communicator for
// future handles. Start on a freed handle, Start while a previous Start
// is still in flight, and Wait or Test before any Start are errors.
//
// Progress: each communicator owns at most one progress goroutine,
// started lazily when a request is issued and exiting when its queue
// drains, so an idle or abandoned communicator holds no goroutine.
// Requests on one communicator execute strictly in issue order — the
// SPMD contract is unchanged: every member issues the same collectives
// in the same order, whether blocking, non-blocking or persistent, and
// completes them in that order.
//
// While an execution is in flight — between Start (or an I* call) and
// the corresponding Wait — the bound argument buffers must not be read
// or written by the application, the handle must not be Started again,
// and the communicator must not issue a blocking collective that could
// overtake the queued one. Reusing one buffer across two simultaneously
// in-flight requests is likewise illegal. Wait may be called from any
// goroutine; Request.Test polls without blocking.
//
//	h, _ := c.AllReduceInit(send, recv, n, icc.Float64, icc.Sum)
//	for iter := 0; iter < steps; iter++ {
//	    // ... refill send ...
//	    h.Start()
//	    // ... overlap independent computation ...
//	    if err := h.Wait(); err != nil {
//	        return err
//	    }
//	}
//	h.Free()
//
// # Fault tolerance and the error model
//
// Every transport shares one sentinel taxonomy, matched with errors.Is:
//
//   - ErrTimeout — an operation outlived its deadline: a receive ran past
//     the world's receive timeout (WithRecvTimeout, DefaultRecvTimeout
//     otherwise), or a TCP connection outage outlived its heal window.
//     Timeouts are the backstop failure detector, converting silent
//     failures into explicit errors.
//   - ErrPeerFailed — another rank of the world is gone: it fail-stopped,
//     its connection died for good, or it originated an abort. Fatal; the
//     world has lost a member and no collective on it can complete.
//   - ErrAborted — the world was poisoned out-of-band: a rank whose
//     collective step failed broadcast the failure (a dying gasp) so that
//     every peer unblocks immediately instead of draining its own receive
//     timeout. Abort errors also wrap ErrPeerFailed and name the
//     originating rank. Comm.Err reports the poisoning error, or nil
//     while the world is healthy.
//   - ErrClosed — an operation on (or with) a deliberately closed
//     endpoint: an orderly shutdown, not a failure.
//
// Failure propagation is bounded-time by construction: when any send,
// receive or combine step of a collective fails on any rank — blocking,
// non-blocking or persistent alike — that rank broadcasts an abort on the
// transport's out-of-band control path before returning. Peers blocked in
// an operation fail immediately with the abort error; peers not yet
// blocked fail on their next operation. A failure nobody observes (a rank
// that simply stops calling) is caught by the receive timeout instead,
// and that timeout error aborts the world in turn. In-flight Requests
// complete (with the abort error), progress goroutines drain and exit,
// and no operation hangs.
//
// The abort itself is typed: every error wrapping ErrAborted carries an
// *AbortError, extracted with errors.As, naming the rank that raised it
// (Origin) and the set of world ranks it believed dead (Failed). Shape
// confusion — debris of a collective cut down mid-flight — poisons the
// world with an empty Failed set, blaming nobody; the rank that actually
// died is identified by its own dying gasp or by the survivor agreement.
//
// Transient faults are a different regime: the TCP transport heals them
// silently. Each connection is supervised — a broken socket triggers
// capped-exponential-backoff redials while senders buffer, and the
// reconnect handshake exchanges delivered-frame counts so exactly the
// lost suffix is retransmitted: no duplicate, no loss, no reordering, and
// collectives in flight complete unperturbed. Only an outage that
// outlives the heal window (WithHealWindow) is promoted to a permanent
// ErrPeerFailed — retry-able network weather below the window, a dead
// rank above it.
//
// The fault schedules themselves live in internal/faultnet: a seeded,
// deterministic injector (fail-stop at a chosen operation, send budgets,
// per-link budgets, drop rates, partitions, added latency) that wraps any
// endpoint, used by the failure, chaos and acceptance suites; `make
// chaos` runs them under the race detector.
//
// # Recovery: Agree, Shrink, rejoin
//
// An abort poisons the world — every further collective fails fast with
// ErrAborted — but the poison is not the end. Survivors recover with two
// communicator operations, after the ULFM (User-Level Failure
// Mitigation) discipline:
//
//   - Comm.Agree runs a fault-tolerant agreement among the members not
//     known dead: a coordinator (the lowest unsuspected rank) collects
//     every survivor's local suspect set, decides the union, and commits
//     it once every live member has acknowledged. The protocol tolerates
//     fail-stop during agreement itself — a coordinator death restarts
//     the round with the next candidate, and the decided set is the same
//     on every survivor.
//   - Comm.Shrink calls Agree, clears the poison (moving the transport to
//     a new epoch whose Recv discards stale-epoch debris), and returns a
//     new communicator over the survivors, re-ranked contiguously with
//     dead members dropped from the declared topology. All collectives —
//     blocking, non-blocking and persistent — run on the shrunken
//     communicator; its plan cache starts fresh.
//
// Shrink is deliberately barrier-free: the agreement's commit point
// (every live member acknowledged the decision) is the synchronization.
// A member that dies after acknowledging simply fails the successor
// communicator's next collective, and the survivor loop shrinks again:
//
//	c := world            // current communicator
//	for {
//	    err := step(c)    // some collective(s)
//	    if err == nil {
//	        continue
//	    }
//	    if errors.Is(err, icc.ErrExpelled) {
//	        return err    // the survivors agreed *we* are dead
//	    }
//	    s, serr := c.Shrink()
//	    if serr != nil {
//	        return serr
//	    }
//	    c = s
//	    // Survivors reach this point at different iterations — aborts
//	    // land asynchronously — so agree on the resume point before
//	    // computing (e.g. AllReduce-Max of the iteration counter).
//	}
//
// The post-shrink resync matters: without it, survivors resume from
// wherever the abort caught them and run different collectives against
// each other. One AllReduce with Max over the iteration counter on the
// new communicator aligns everyone at the furthest survivor.
//
// A killed rank need not stay dead. On the TCP transport a restarted
// rank re-binds its listener, re-dials with Rejoin, and joins the world
// with icc.Join, which syncs the survivors' epoch, failed set and
// calibration profile; a survivor readmits it with Comm.Readmit, and the
// readmitted communicator spans the original world again. Restart
// detection is by incarnation: every endpoint presents a boot id in the
// link handshake, so a zombie that restarts within the heal window is
// detected at its first dial-back instead of being silently healed.
//
// # Calibration and performance guidelines
//
// The planner prices candidate schedules with the α/β/γ machine
// constants; by default these are the paper's Paragon-like guesses. The
// paper's §11 position is that retuning for a new machine means entering
// a handful of measured numbers — Calibrate measures them. It is a
// collective: every rank of the world calls it, rank 0 runs ping-pong
// probes (round trips over a geometric length sweep, least-squares fit
// for α and β) and an eager burst sweep (streaming bandwidth, which
// replaces β on pipelining transports), then broadcasts the fitted
// Profile to all ranks. On a hierarchical topology it probes each level
// separately, so the per-level machines feed hierarchy-aware planning.
//
//	prof, err := icc.Calibrate(c, icc.CalibrateOptions{})
//	// prof.Save("chan.json") — later:
//	world := icc.NewChannelWorld(8, icc.WithProfile("chan.json"))
//	// or, with the profile in hand:
//	world  = icc.NewChannelWorld(8, icc.WithCalibration(prof))
//
// Comm.MachineProvenance reports which constants are planning ("default
// ParagonLike", "calibrated (chan), fitted ...", "profile chan.json:
// ..."), and the same string is stamped on every Explain ranking, so a
// surprising pick is always traceable to the machine that priced it.
// cmd/calibrate emits and inspects profiles; cmd/planexplore -profile
// prices its rankings with one.
//
// The inverse direction — checking that the planner's choices behave
// like a performance model says they must — is the performance-
// guidelines gate (internal/harness, cmd/guidelines), after Hunold's
// self-consistent performance guidelines: composition dominance
// (AllReduce must not cost more than Reduce then Bcast, Scatter no more
// than Bcast, and so on), monotonicity in message length and in rank
// count, and the §7.1 envelope claim that the auto policy is never
// worse than the short- or long-vector algorithm it chooses between.
// The sweep runs on simnet (deterministic virtual time, tight
// tolerances) and on the chan transport (wall clock, loose tolerances),
// and `make verify` runs the simnet slice on every change.
//
// # Quick start
//
//	world := icc.NewChannelWorld(8)
//	world.Run(func(c *icc.Comm) error {
//	    x := make([]byte, 8*1024)
//	    // ... fill x on rank 0 ...
//	    return c.Bcast(x, len(x), datatype.Uint8, 0)
//	})
//
// See examples/ for complete programs; `go run ./cmd/paper <name>`
// regenerates every table, figure and study of the paper (table2, table3,
// fig1trace, fig2, fig4, crossover, sweep, ablate, edst, groupstudy,
// port).
package icc
