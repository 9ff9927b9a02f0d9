# Orion development targets. `make check` is the full gate: formatting,
# vet, build, tests, and the race detector on the concurrency-heavy
# packages.

GO ?= go

.PHONY: check fmt vet lint build test race chaos soak bench-smoke trace-smoke adapt-smoke vet-examples fuzz bench-obs bench-vm bench-transport bench-pair golden-plans golden-plans-check

check: fmt vet lint build test race chaos bench-smoke trace-smoke adapt-smoke golden-plans-check

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Project-specific analyzers (internal/lint): wall-clock reads in
# deterministic packages, unended trace spans, retained Msg payloads.
lint:
	$(GO) run ./cmd/orion-lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The runtime, driver, engine, observability, and kernel-compilation
# packages exercise executors, rotation pipelines, trace buffers, and
# the simulator concurrently — run them under the race detector.
race:
	$(GO) test -race ./internal/runtime/... ./internal/driver ./internal/engine \
		./internal/dslkernel/... ./internal/obs

# The seeded fault-injection suite: scripted connection failures at
# chosen loop clocks, recovery from coordinated checkpoints, and
# bitwise comparison against fault-free runs — under the race detector.
chaos:
	$(GO) test -race -run 'Chaos' ./internal/runtime ./internal/driver

# The long randomized chaos soak: MF and LDA under seeded random fault
# schedules mixing all seven fault kinds (sever, delay, corrupt,
# truncate, duplicate, reorder, and checkpoint-time loss), every
# schedule asserted bitwise-identical to its fault-free run. A bounded
# two-seed variant runs inside `test` and `chaos`; this target unlocks
# the full seed sweep.
soak:
	ORION_SOAK=1 $(GO) test -race -run 'ChaosSoak' -v ./internal/driver

# One iteration of every benchmark — catches bit-rotted benchmark code
# without paying for real measurement. internal/bench also carries the
# threshold tests over the committed BENCH_vm.json / BENCH_obs.json /
# BENCH_transport.json baselines (run under `test`), so VM, tracing and
# transport regressions fail `make check` twice over.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x \
		./internal/lang ./internal/dsm ./internal/runtime ./internal/bench

# End-to-end flight-recorder smoke: a 2-worker MF run over real TCP
# sockets with tracing, report export, and the flight log on, then
# orion-trace over the artifacts — analyze exits non-zero when the
# merged trace carries no spans or the report no loops.
trace-smoke:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/orion-run -engine dsl -app mf -workers 2 -passes 2 \
		-transport tcp -trace "$$dir/trace.json" \
		-report-json "$$dir/report.json" -flightrec "$$dir/flight.jsonl" && \
	$(GO) run ./cmd/orion-trace analyze -report "$$dir/report.json" "$$dir/trace.json" && \
	$(GO) run ./cmd/orion-trace top -n 5 "$$dir/trace.json" && \
	test -s "$$dir/flight.jsonl"

# Adaptive re-planning smoke: a synthetic straggler (worker 0 padded
# 200µs per iteration) must trip a mid-run recut that cuts the measured
# compute-skew index by >= 30% by the last boundary — orion-run exits
# non-zero otherwise.
adapt-smoke:
	$(GO) run ./cmd/orion-run -engine dsl -app mf -workers 3 -passes 5 \
		-adapt -adapt-skew 2 -skew-demo 200 -adapt-assert-drop 0.3

# Regenerate the committed observability-overhead baseline. Its
# regression gate compares against BENCH_vm.json's vm_ns_per_iter, so
# regenerate that first (make bench-vm).
bench-obs:
	$(GO) run ./cmd/orion-bench -obs-json BENCH_obs.json

# Regenerate the committed loop-backend baseline (reference interpreter
# vs bytecode VM). TestVMBaselineThresholds gates the result.
bench-vm:
	$(GO) run ./cmd/orion-bench -vm-json BENCH_vm.json

# Regenerate the committed rotation-transport baseline (gob blobs vs
# the raw codec over pooled buffers). TestTransportBaselineThresholds
# gates the result.
bench-transport:
	$(GO) run ./cmd/orion-bench -transport-json BENCH_transport.json

# Paired before/after runs of the end-to-end benchmark (perfbench): BASE
# (default HEAD) is built in a throwaway git worktree under
# .bench_build/, the working tree as it stands, and each workload runs
# N (default 10) seeded pairs alternating which side goes first. Prints
# per-metric medians, change/base ratios, failed shares, and whether the
# loss digests match. Optional: WORKLOADS, RUN_SECONDS, SEED0, TRACE.
bench-pair:
	BASE='$(BASE)' N='$(N)' WORKLOADS='$(WORKLOADS)' RUN_SECONDS='$(RUN_SECONDS)' \
		SEED0='$(SEED0)' TRACE='$(TRACE)' bash scripts/bench-pair.sh

# Vet every shipped example program; unsafe.orion is expected to fail.
vet-examples:
	$(GO) run ./cmd/orion-vet examples/quickstart/mf.orion \
		examples/slr_prefetch/slr.orion examples/wavefront/stencil.orion \
		examples/lda_dsl/lda.orion examples/vet_demo/fixed.orion \
		examples/strided/interleave.orion examples/guarded/tile.orion
	! $(GO) run ./cmd/orion-vet examples/vet_demo/unsafe.orion

# Regenerate the committed golden plan artifacts (one per examples/
# program) after an intentional planning or serialization change.
golden-plans:
	ORION_UPDATE_GOLDEN=1 $(GO) test ./internal/plan -run TestGolden

# Gate: fail when the compiled plans drift from their committed goldens.
golden-plans-check:
	$(GO) test ./internal/plan -run TestGolden

# Short fuzzing sessions over the DSL front end, the plan-artifact
# decoders, the symbolic dependence tier (soundness vs the brute-force
# oracle), the interpreter-vs-VM execution differential, and
# the wire-frame decoder (hostile header claims must condemn the link,
# never crash or over-allocate).
fuzz:
	$(GO) test ./internal/lang -fuzz 'FuzzParse$$' -fuzztime 30s
	$(GO) test ./internal/lang -fuzz FuzzParseProgram -fuzztime 30s
	$(GO) test ./internal/plan -fuzz FuzzDecodeArtifact -fuzztime 30s
	$(GO) test ./internal/dep -fuzz FuzzRangeAnalysis -fuzztime 30s
	$(GO) test ./internal/lang/vm -fuzz FuzzExecDifferential -fuzztime 30s
	$(GO) test ./internal/runtime -fuzz FuzzDecodeFrame -fuzztime 30s
