GO ?= go

.PHONY: build test vet staticcheck race check bench bench-smoke bench-module bench-diff fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 20m ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. The tool is not vendored and `make check`
# must work in a hermetic container, so the target is a no-op (with a
# notice) when staticcheck is not on PATH; CI installs a pinned version
# so the gate always runs there (see .github/workflows/ci.yml).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

# The telemetry subsystem, the parallel explorer, the backend's
# shared-kernel/scratch machinery, the persistent evaluation cache,
# the job-queueing HTTP server, and the distributed-exploration
# coordinator (plus the context-cancellation paths threaded through
# all of them) are the places where data races could hide; run them
# under the race detector. Explicit -timeout so a deadlock fails the
# build with goroutine dumps instead of hanging CI to its job limit.
race:
	$(GO) test -race -timeout 20m ./internal/obs/... ./internal/dse/... ./internal/sched/... ./internal/evcache/... ./internal/fleetcache/... ./internal/serve/... ./internal/dist/... ./internal/ops/...

# One-iteration pass over the exploration, fleet and simulator
# benchmarks: catches bit-rot in the benchmark harness without paying
# for a real measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/dse/
	$(GO) test -run '^$$' -bench BenchmarkFleetWarm -benchtime 1x ./internal/dist/
	$(GO) test -run '^$$' -bench BenchmarkSimRun -benchtime 1x ./internal/sim/

# The end-to-end benchmark (BENCHMARK.json, benchmark/) is a module of
# its own, so `go build ./...` and `go test ./...` at the root never
# compile it: its ledger calls sched, regalloc and ddg directly, and a
# changed signature there breaks it silently. Vet it and run its tests
# (a smoke pass of every workload over a twentieth of its inputs, ~20 s).
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Five seconds of native fuzzing on the parser that guards the fleet
# cache tier (fleetcache.Handler's POST body): long enough to replay the
# seed corpus and mutate it a few tens of thousands of times, short
# enough for every `make check`. Findings land under
# internal/fleetcache/testdata/fuzz/ and then fail plain `go test` too.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzHandlerPut$$' -fuzztime 5s ./internal/fleetcache/

# Extended verify: everything the tier-1 gate runs, plus vet,
# staticcheck (when installed), the race pass, the benchmark smoke, the
# benchmark module's own vet and tests and the fuzz smoke (see
# ROADMAP.md).
check: build vet staticcheck test race bench-smoke bench-module fuzz-smoke

# Measure the exploration, fleet and simulator benchmarks and record
# the trajectory against the pre-optimization baseline (the
# cfp-benchjson parser handles multi-package `go test` output; see
# docs/PERFORMANCE.md).
bench:
	( $(GO) test -run '^$$' -bench . -benchmem ./internal/dse/ && \
	  $(GO) test -run '^$$' -bench BenchmarkFleetWarm -benchmem ./internal/dist/ && \
	  $(GO) test -run '^$$' -bench BenchmarkSimRun -benchmem ./internal/sim/ ) | \
		$(GO) run ./cmd/cfp-benchjson \
			-baseline internal/dse/testdata/bench_baseline_pr2.txt \
			-baseline-note "pre-optimization seed (PR2 start)" \
			-o BENCH_explore.json
	@echo wrote BENCH_explore.json

# Regression gate: re-measure the tracked benchmarks and fail if one
# regressed beyond its limit against the recorded trajectory in
# BENCH_explore.json. Repeats gated on the minimum, so scheduler noise
# cannot fail an unchanged tree. BenchmarkEvaluate — one cold
# evaluation with every cache off, one lap over its 192 machines —
# gates ns/op and allocs/op at 15% (a ~3 ms op is noisier than a
# 100 ms grid). BenchmarkEvaluateWarmCache — a cache hit, which is what
# every evaluation that does not compile costs (~3 us, two dozen
# allocations: the kernel-class hash, the key, the lookup) — gates
# allocs/op at 10% and ns/op at 25% (a microsecond-scale op on a shared
# box). BenchmarkExploreSubset gates ns/op and
# allocs/op at 10%. BenchmarkExploreOpsSubset (the op-crossed grid, so
# pattern rewrite and custom-unit scheduling are on the measured path)
# gates ns/op only, at 15% — fused placement makes its allocation
# profile noisier than the op-free twin. BenchmarkFleetWarm gates
# ns/op only, at 30%: its
# per-op time is dominated by HTTP round trips and job-poll alignment
# (tens-of-ms scale), which even a minimum-of-repeats does not fully
# de-noise — while a broken cache tier (recomputing instead of reading
# through) is several-fold slower, so the loose limit still catches the
# failure mode. BenchmarkSimRun (the sim layer alone: four programs
# decoded and executed per op, ~8 ms) gates ns/op at 15% and allocs/op
# at 10%: its allocations are a function of program size only, so any
# growth there means something crept back into the cycle loop.
bench-diff:
	$(GO) test -run '^$$' -bench 'BenchmarkEvaluate$$' -benchtime 192x -count 3 ./internal/dse/ | \
		$(GO) run ./cmd/cfp-benchjson -against BENCH_explore.json \
			-regress-bench BenchmarkEvaluate -max-regress 0.15
	$(GO) test -run '^$$' -bench BenchmarkEvaluateWarmCache -benchtime 20000x -count 3 ./internal/dse/ | \
		$(GO) run ./cmd/cfp-benchjson -against BENCH_explore.json \
			-regress-bench BenchmarkEvaluateWarmCache -regress-metrics allocs/op -max-regress 0.10
	$(GO) test -run '^$$' -bench BenchmarkEvaluateWarmCache -benchtime 20000x -count 3 ./internal/dse/ | \
		$(GO) run ./cmd/cfp-benchjson -against BENCH_explore.json \
			-regress-bench BenchmarkEvaluateWarmCache -regress-metrics ns/op -max-regress 0.25
	$(GO) test -run '^$$' -bench BenchmarkExploreSubset -benchtime 3x -count 3 ./internal/dse/ | \
		$(GO) run ./cmd/cfp-benchjson -against BENCH_explore.json
	$(GO) test -run '^$$' -bench BenchmarkExploreOpsSubset -benchtime 3x -count 3 ./internal/dse/ | \
		$(GO) run ./cmd/cfp-benchjson -against BENCH_explore.json \
			-regress-bench BenchmarkExploreOpsSubset -regress-metrics ns/op -max-regress 0.15
	$(GO) test -run '^$$' -bench BenchmarkFleetWarm -benchtime 10x -count 3 ./internal/dist/ | \
		$(GO) run ./cmd/cfp-benchjson -against BENCH_explore.json \
			-regress-bench BenchmarkFleetWarm -regress-metrics ns/op -max-regress 0.30
	$(GO) test -run '^$$' -bench BenchmarkSimRun -benchtime 100x -count 3 ./internal/sim/ | \
		$(GO) run ./cmd/cfp-benchjson -against BENCH_explore.json \
			-regress-bench BenchmarkSimRun -regress-metrics ns/op -max-regress 0.15
	$(GO) test -run '^$$' -bench BenchmarkSimRun -benchtime 20x ./internal/sim/ | \
		$(GO) run ./cmd/cfp-benchjson -against BENCH_explore.json \
			-regress-bench BenchmarkSimRun -regress-metrics allocs/op -max-regress 0.10
