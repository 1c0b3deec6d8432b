GO ?= go

.PHONY: all build cross test race flake fmt vet staticcheck check fuzz loc bench-baseline bench-check figures-check bench-pack alloc-check bench-wall-quick trace-smoke cli-smoke recovery-smoke daemon-smoke churn-smoke ci clean

all: build

build:
	$(GO) build ./...

# cross builds for a platform without sync_file_range or Linux's
# sendfile, so the no-op writeback stub (internal/storage/osdisk_other.go)
# and the no-zero-copy transport stub (internal/mpi/sendfile_other.go,
# whose servers take the buffered read arm) are compiled and vetted by
# something. Needs no network: the module has no dependencies.
cross:
	GOOS=darwin $(GO) build ./...
	GOOS=darwin $(GO) vet ./internal/storage/ ./internal/mpi/ ./internal/core/

test:
	$(GO) test ./...

# fmt fails, listing the files, when gofmt would rewrite any.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

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

# check is the static-analysis gate: gofmt and vet always, staticcheck
# when installed.
check: fmt vet staticcheck

# race runs the whole suite under the race detector — the chaos and
# transport tests drive many goroutines through the protocol, so this
# is the main concurrency gate.
race:
	$(GO) test -race ./...

# flake is the robustness gate: the queue, transport, protocol, storage
# and daemon tests repeated under the race detector on two cores, where
# scheduling is tight enough to expose teardown, registration and
# closed-socket races that a single quiet run hides. The protocol tests
# run on one core as well (-cpu 1,2, hence twice the time budget), where
# a test that asserts one schedule of its goroutines fails every time.
flake:
	GOMAXPROCS=2 $(GO) test -race -count=10 -timeout 30m ./internal/queue ./internal/mpi ./internal/storage
	GOMAXPROCS=2 $(GO) test -race -count=10 -cpu 1,2 -timeout 60m ./internal/core
	GOMAXPROCS=2 $(GO) test -race -count=5 -timeout 30m -run 'TestDaemon' .

# loc counts what ROADMAP states its deliverables in: non-test Go lines
# of internal/core, of server.go, and of the repo outside bench/ — then
# the same three scopes again in code-only lines (non-blank, not a //
# comment), since deleting comments is no reduction.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs awk \
		'{ code = $$0 !~ /^[ \t]*(\/\/|$$)/; all++; calls += code } \
		FILENAME ~ /^.\/internal\/core\// { core++; ccore += code } FILENAME ~ /core\/server.go$$/ { srv++; csrv += code } \
		END { printf "internal/core %d\nserver.go %d\nrepo outside bench/ %d\n", core, srv, all; \
			printf "code-only internal/core %d\ncode-only server.go %d\ncode-only repo outside bench/ %d\n", ccore, csrv, calls }'

# Short fuzz campaigns over the wire decoders, the TCP frame reader (with
# and without posted receives), the client's placement of a frame's head,
# the hub's hello handling, the topology parser, the pack kernel (against
# its per-element reference), the on-disk manifests and chunk lists
# readers plan from, and the scrubber over arbitrary epoch file sets;
# lengthen FUZZTIME for a real hunt.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeOpRequest$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeSubData$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeSubReq$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeSchedDone$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeStatus$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzPlace$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzChunkList$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzReadManifest$$' -fuzztime $(FUZZTIME) ./internal/storage
	$(GO) test -run '^$$' -fuzz 'FuzzScrub$$' -fuzztime $(FUZZTIME) ./internal/storage
	$(GO) test -run '^$$' -fuzz 'FuzzReadFrame$$' -fuzztime $(FUZZTIME) ./internal/mpi
	$(GO) test -run '^$$' -fuzz 'FuzzHubHello$$' -fuzztime $(FUZZTIME) ./internal/mpi
	$(GO) test -run '^$$' -fuzz 'FuzzParseTopology$$' -fuzztime $(FUZZTIME) ./internal/mpi
	$(GO) test -run '^$$' -fuzz 'FuzzCopyRegion$$' -fuzztime $(FUZZTIME) ./internal/array

# bench-baseline snapshots every virtual-time measurement into
# BENCH_engine.json: the staged-engine grid on the Table 1
# configurations (serial vs staged, reads and writes), the plan-cache
# probe, the mixed-workload scheduler bench (three tenants of weight
# 4:2:1, overlapped vs serialized dispatch) and the topology experiment
# (flat vs synthesized schedules, 64 -> 1,024 compute nodes), plus the
# host-dependent pack rows. Scale 3 shrinks arrays 8x so the snapshot
# takes seconds.
BENCH_SCALE ?= 3
bench-baseline:
	$(GO) run ./cmd/pandabench -engine-json BENCH_engine.json -scale $(BENCH_SCALE)

# bench-check re-measures the committed baseline and fails unless every
# virtual-time row (rows, plan_cache, sched, topo) is identical to it —
# they are deterministic, so a difference is a change to explain, not
# noise — and the structural claims hold: the plan cache hits,
# overlapped dispatch beats serialized, synthesized schedules beat flat
# at >= 256 nodes by a margin that grows with the machine. A fresh
# snapshot lands next to the baseline as BENCH_engine.json.new for
# inspection (CI uploads it).
bench-check:
	$(GO) run ./cmd/pandabench -engine-check BENCH_engine.json

# figures-check is the second virtual-time oracle: the paper-sized
# figures, every one (about half a minute), byte for byte against the
# committed results_full.txt. A difference is a change to the simulated
# protocol's timing: explain it and regenerate the file
# (`$(GO) run ./cmd/pandabench > results_full.txt`), or fix the change.
figures-check:
	$(GO) run ./cmd/pandabench | diff results_full.txt -

# bench-pack measures the data-movement fast path on this host: the
# coalescing CopyRegion kernel across strided, coalesced and contiguous
# shapes, with allocation counts. The Run16 row is the fixed-width arm
# and Run24/32 the copy arm beside it, each 16 MiB per iteration in the
# geometry of bench/'s probe, so they read against array.pack_run16_GBps.
# No number is gated.
bench-pack:
	$(GO) test -run '^$$' -bench 'BenchmarkCopyRegion' -benchmem ./internal/array

# alloc-check is the allocation gate: a write+read pair within its
# budget at either write window of the storage stage (MaxInflight 0:
# zero, the paper's loop; 1: write-behind), and write-behind within 2 %
# of zero; a pooled
# buffer's round trip, a bounded receive of a waiting message, a frame
# written to a socket, a file range sent to one, a frame read from one
# into its place in the application's array, a piece an in-process
# server writes into that place and a pull an in-process server answers
# by copying its piece out of the client's posted write allocate nothing,
# and neither does finding a fast path through a wrapper (the capability
# walk).
alloc-check:
	$(GO) test -run 'TestCollectiveAllocBudget|TestBufpoolPutAllocatesNothing|TestRecvZeroAllocSteadyState|TestWriterZeroAlloc|TestFileFrameZeroAlloc|TestPlacedFrameZeroAlloc|TestInprocPlacedFrameZeroAlloc|TestInprocBorrowedPullZeroAlloc|TestCapabilityWalkZeroAlloc' -count=3 ./internal/...

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

# cli-smoke starts the command-line tools no other gate starts, with
# every flag off its default — the smoke column of the knob matrix
# (TestKnobMatrix reads this file). Exit statuses are the gate, plus a
# valid trace from the traced run, and a misspelt schema must be
# refused.
cli-smoke:
	$(GO) run ./cmd/pandasim -op read -size 8 -cn 16 -ion 2 -schema trad -disk fast -subchunk 524288 -readahead 2 -arrays 2
	$(GO) run ./cmd/pandasim -size 8 -pipeline 4 -topo fat-tree:4 -flat-schedules -trace cli-smoke-trace.json
	$(GO) run ./cmd/pandatrace -check cli-smoke-trace.json
	$(GO) run ./cmd/pandasim -size 8 -strategy two-phase
	$(GO) run ./cmd/pandasim -candidates
	! $(GO) run ./cmd/pandasim -schema traditional
	$(GO) run ./cmd/pandabench -fig fig5 -scale 6 -csv -subchunk 524288 -pipeline 2 -readahead 1 -v

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
# three pandad -join processes against a live daemon, one SIGKILLed and
# declared lost within a second (its control connection ended), arrays
# rewritten around the corpse, one SIGSTOPped and declared lost by its
# lease, the first drained with migration, bit-exact readback at every
# step, and a pandafsck gate over every directory — the CI membership
# gate.
churn-smoke:
	CHURN_SMOKE_OUT=$(CURDIR)/churn-artifacts bash scripts/churn_smoke.sh

ci: check race

clean:
	$(GO) clean -testcache
