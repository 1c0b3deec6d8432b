GO ?= go

.PHONY: all build test race flake vet staticcheck check fuzz bench-baseline bench-check bench-sched sched-check bench-topo topo-check bench-pack bench-wall-quick trace-smoke recovery-smoke daemon-smoke churn-smoke ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is on PATH (CI installs it; local
# developers may not have it) and is a no-op otherwise.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping" ; \
	fi

# check is the static-analysis gate: vet always, staticcheck when
# installed.
check: vet staticcheck

# race runs the whole suite under the race detector — the chaos and
# transport tests drive many goroutines through the protocol, so this
# is the main concurrency gate.
race:
	$(GO) test -race ./...

# flake is the robustness gate: the transport, protocol and daemon
# tests repeated under the race detector on two cores, where scheduling
# is tight enough to expose teardown, registration and closed-socket
# races that a single quiet run hides.
flake:
	GOMAXPROCS=2 $(GO) test -race -count=10 -timeout 30m ./internal/mpi ./internal/core
	GOMAXPROCS=2 $(GO) test -race -count=5 -timeout 30m -run 'TestDaemon' .

# Short fuzz campaigns over the wire decoders; lengthen FUZZTIME for a
# real hunt.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeOpRequest$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeSubData$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeSubReq$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeSubDataOp$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeSubReqOp$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeSchedDone$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeStatus$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzParseTopology$$' -fuzztime $(FUZZTIME) ./internal/mpi

# bench-baseline snapshots the staged-engine performance on the Table 1
# configurations (serial vs staged, reads and writes) into
# BENCH_engine.json, for before/after comparison of engine changes.
# Scale 3 shrinks arrays 8x so the snapshot takes seconds.
BENCH_SCALE ?= 3
bench-baseline:
	$(GO) run ./cmd/pandabench -engine-json BENCH_engine.json -scale $(BENCH_SCALE)

# bench-check re-measures the committed baseline's grid and fails if
# any row's aggregate throughput regressed more than 10%, or if the
# plan cache stopped hitting. A fresh snapshot lands next to the
# baseline as BENCH_engine.json.new for inspection (CI uploads it).
bench-check:
	$(GO) run ./cmd/pandabench -engine-check BENCH_engine.json

# bench-sched snapshots the mixed-workload scheduler bench (three
# tenants of weight 4:2:1, overlapped vs serialized dispatch; p99 op
# latency and aggregate MB/s) into the sched rows of BENCH_engine.json,
# preserving the other sections. sched-check is the matching CI gate:
# it re-runs the workload at the committed scale and fails if aggregate
# throughput regresses more than 10% or overlapped dispatch stops
# beating the serialized baseline.
bench-sched:
	$(GO) run ./cmd/pandabench -sched-json BENCH_engine.json -scale $(BENCH_SCALE)

sched-check:
	$(GO) run ./cmd/pandabench -sched-check BENCH_engine.json

# bench-topo snapshots the topology experiment (the same racked network
# measured under the flat paper schedules and under the synthesized
# tree/rack-affinity schedules, 64 -> 1,024 compute nodes on a fat-tree
# and an oversubscribed fabric) into the topo rows of BENCH_engine.json,
# preserving the other sections. topo-check is the matching CI gate: it
# fails if the synthesized schedule slows down more than 10%, loses to
# flat at >= 256 nodes, or its advantage stops growing with node count.
bench-topo:
	$(GO) run ./cmd/pandabench -topo-json BENCH_engine.json -scale $(BENCH_SCALE)

topo-check:
	$(GO) run ./cmd/pandabench -topo-check BENCH_engine.json

# bench-pack measures the data-movement fast path on this host: the
# coalescing CopyRegion kernel across strided, coalesced, contiguous
# and pooled-worker shapes, with allocation counts.
bench-pack:
	$(GO) test -run '^$$' -bench 'BenchmarkCopyRegion' -benchmem ./internal/array

# bench-wall-quick builds and runs the wall-clock benchmark (bench/, its
# own module, which BENCHMARK.json declares) at its smallest setting:
# its unit tests, then a -quick pass over every workload. No number is
# gated — the point is that an API change that breaks the benchmark
# fails the PR that makes it.
bench-wall-quick:
	cd bench && $(GO) test ./...
	bash bench/run.sh -quick

# trace-smoke records a small traced benchmark run and validates the
# exported Chrome trace JSON — the CI observability gate.
trace-smoke:
	$(GO) run ./cmd/pandabench -fig fig4 -scale 5 -trace trace.json
	$(GO) run ./cmd/pandatrace -check trace.json

# recovery-smoke sweeps every crash point of the commit protocol plus a
# server-failover round on a fixed seed, dumping the epoch manifests
# and Chrome traces of each crashed run into recovery-artifacts/ — the
# CI crash-consistency gate.
recovery-smoke:
	rm -rf recovery-artifacts
	PANDA_RECOVERY_OUT=$(CURDIR)/recovery-artifacts $(GO) test -count=1 \
		-run 'TestCrashPointSweep|TestReassignmentCompletesDegraded' ./internal/core
	@ls recovery-artifacts >/dev/null

# daemon-smoke starts a pandad service daemon over a fresh catalog and
# drives a write/read/reload/drain cycle from separate client
# processes, gating on every exit status plus a clean fsck — the CI
# service-lifecycle gate. The daemon log and catalog directory land in
# daemon-artifacts/ for inspection.
daemon-smoke:
	DAEMON_SMOKE_OUT=$(CURDIR)/daemon-artifacts bash scripts/daemon_smoke.sh

# churn-smoke drives the elastic server pool from separate processes:
# two pandad -join processes against a live daemon, one SIGKILLed and
# declared lost by its lease, arrays rewritten around the corpse, the
# survivor drained with migration, bit-exact readback at every step,
# and a pandafsck gate over every directory — the CI membership gate.
churn-smoke:
	CHURN_SMOKE_OUT=$(CURDIR)/churn-artifacts bash scripts/churn_smoke.sh

ci: check race

clean:
	$(GO) clean -testcache
