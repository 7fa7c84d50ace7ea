# Tier-1 verification gate. `make verify` is what CI and every PR must
# keep green: a full build, go vet, a gofmt cleanliness check, the complete
# test suite, and a short-mode pass under the race detector (the transports
# are concurrent by construction; chantransport runs every rank as a
# goroutine and tcptransport adds reader goroutines per connection, so the
# race detector is part of the gate, not an extra).

GO ?= go

.PHONY: verify build vet fmtcheck one-path test race chaos chaos-soak guidelines calibrate bench-check ab benchall sweep hiersweep

verify: build vet fmtcheck one-path test race chaos guidelines-short bench-check

vet:
	$(GO) vet ./...

fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

# one-path keeps a second way to execute a collective from growing back.
# In internal/core only plan.go (Plan.Execute) may call an endpoint; the
# root package may call core only to build a plan (Build*), partition a
# vector (EqualCounts), size a pipeline (OptimalBlocks) or price an
# algorithm (*Cost) — never to run one.
ENDPOINT_CALLS = '\.Send\(|\.Recv\(|\.SendRecv\(|SendSize\(|RecvSize\(|SendRecvSize\(|transport\.Elapse\('
CORE_ALLOWED = 'core\.(Build[A-Za-z]*|EqualCounts|OptimalBlocks|[A-Za-z]*Cost)\('

one-path:
	@out=$$(grep -nE $(ENDPOINT_CALLS) $$(ls internal/core/*.go | grep -v -e '_test\.go$$' -e '/plan\.go$$')); \
	if [ -n "$$out" ]; then echo "endpoint call in internal/core outside plan.go:"; echo "$$out"; exit 1; fi
	@out=$$(grep -noE 'core\.[A-Za-z]+\(' $$(ls *.go | grep -v '_test\.go$$') | grep -vE $(CORE_ALLOWED)); \
	if [ -n "$$out" ]; then echo "root package calls core other than to build a plan:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# chaos runs the fault-injection suites — seeded faultnet schedules,
# fail-stop propagation across all transports and completion modes, the
# TCP healing path, and the recovery suites (typed abort attribution,
# Agree/Shrink including fail-stop during agreement, the kill → shrink →
# keep-computing soak, and TCP rank rejoin) — under the race detector.
CHAOS_RUN = 'TestChaos|TestFailStop|TestAbortPoisons|TestSendFailure|TestZeroBudget|TestDisarmed|TestReconnect|TestCollectiveThroughReconnect|TestDeadPeer|TestBrokenThenClosed|TestRecovery|TestShrink|TestRejoin'

chaos:
	$(GO) test -race -short -count=1 -run $(CHAOS_RUN) \
		. ./internal/core ./internal/faultnet ./internal/tcptransport

# chaos-soak repeats the suites of chaos that run over chantransport ten
# times: the soak a change to its data path owes. It leaves out the TCP
# transport's package and the tcp subtests of the others, which flake at
# -count=10 on their own (CHANGES.md, PR 13; ROADMAP item 5d) and would hide
# a chan flake behind a red target. A flake here is a bug with a seed; `make
# verify` keeps the single pass over everything.
chaos-soak:
	$(GO) test -race -short -count=10 -run $(CHAOS_RUN) -skip 'TCP|/tcp|/.*/tcp' \
		. ./internal/core ./internal/faultnet

# guidelines-short is the verify-time slice of the performance-guidelines
# gate: the simnet sweep only (deterministic virtual time; the wall-clock
# chan sweep skips itself under -short).
.PHONY: guidelines-short
guidelines-short:
	$(GO) test -short -count=1 -run 'TestGuidelines' ./internal/harness

# guidelines runs the full Hunold-style invariant sweep (composition
# dominance, length/rank monotonicity, auto-envelope) on simnet and chan
# and exits non-zero on any violation.
guidelines:
	$(GO) run ./cmd/guidelines

# calibrate probes the chan transport and writes a reusable machine
# profile; load it with icc.WithProfile or planexplore -profile.
calibrate:
	$(GO) run ./cmd/calibrate -transport chan -p 8 -o profile.json

# bench-check keeps the repo's benchmark (bench/, a Go module of its own
# that `go build ./...` and `go test ./...` here do not reach; see
# bench/README.md and BENCHMARK.json) compiling and passing against the
# library: a refactor that breaks an internal API it uses fails here.
bench-check:
	cd bench && $(GO) vet . && test -z "$$(gofmt -l .)" && $(GO) test -short .

# ab runs the A/B protocol of bench/README.md between BASE and the checkout:
# make ab BASE=HEAD~1 W=short_blocking [SEED=2]. See scripts/ab.sh.
ab:
	bash scripts/ab.sh $(BASE) $(W) $(SEED)

# benchall touches every benchmark once (a smoke pass, not a measurement).
benchall:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

sweep:
	$(GO) run ./cmd/paper sweep

hiersweep:
	$(GO) run ./cmd/hiersweep
