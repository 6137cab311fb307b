GO ?= go

.PHONY: build test vet staticcheck race check cells bench bench-smoke bench-module bench-diff fuzz-smoke loc

build:
	$(GO) build ./...

# Tier 1. Among the tests: EXPERIMENTS.md's report block must be the
# report of results_full.json, and its studies block what
# `cfp-explore -studies` prints; after a change that moves a number on
# purpose, rewrite both with `go test . -run TestExperiments -update`.
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
# all of them) are the places where data races could hide, and so are
# the idle-arena list and its four users' one-shot paths (the ageing
# tick runs on the finalizer goroutine; a compile reads the shared
# kernel itself, clustered or on one cluster; the frontend takes a
# workspace per compile), and the packages whose tables compile workers
# share read only (a latency class's packed dependence skeletons, the
# schedules and allocations the delta cache hands out): run them under
# the race detector. Explicit
# -timeout so a deadlock fails the build with goroutine dumps instead of
# hanging CI to its job limit.
race:
	$(GO) test -race -timeout 20m ./internal/obs/... ./internal/dse/... ./internal/sched/... ./internal/evcache/... ./internal/fleetcache/... ./internal/serve/... ./internal/dist/... ./internal/ops/... ./internal/idle/... ./internal/opt/... ./internal/sim/... ./internal/cc/... ./internal/core/... ./internal/ddg/... ./internal/regalloc/... ./internal/vliw/...

# One-iteration pass over the exploration, simulator and frontend
# benchmarks: catches bit-rot in the benchmark harness without paying
# for a real measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/dse/
	$(GO) test -run '^$$' -bench BenchmarkSimRun -benchtime 1x ./internal/sim/
	$(GO) test -run '^$$' -bench 'BenchmarkOneShot|BenchmarkWarmFit' -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkShardStatus|BenchmarkFleetWarm' -benchtime 1x ./internal/dist/
	$(GO) test -run '^$$' -bench BenchmarkExploreSubmit -benchtime 1x ./internal/serve/
	$(GO) test -run '^$$' -bench BenchmarkFrontend -benchtime 1x ./internal/cc/

# The end-to-end benchmark (BENCHMARK.json, benchmark/) is a module of
# its own, so `go build ./...` and `go test ./...` at the root never
# compile it: its ledger calls sched, regalloc and ddg directly, and a
# changed signature there breaks it silently. Vet it and run its tests
# (a smoke pass of every workload over a twentieth of its inputs, ~20 s).
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Five seconds of native fuzzing on each of the tree's targets: the
# parser that guards the fleet cache tier (fleetcache.Handler's POST
# body), the dependence-skeleton builder against the construction it
# replaced (ddg.Builder vs internal/ddg/reference_test.go, on blocks
# spelled by the bytes), the disk cache's hand-written shard line
# codec against encoding/json, which it abbreviates (evcache's
# parseRecord and appendRecord), the results document (dse's
# FuzzResultsDocument: what FromJSON reads, JSON writes back as a
# document that reads and writes again as itself), the job status
# and measurement document a worker answers an unpriced shard with, as
# the coordinator reads them (dist's FuzzSplitStatus: the in-place
# status reader serve.ReadMeasuredStatus declines or agrees with
# json.Unmarshal and ReadMeasurement, serve.ReadMeasurement refuses or
# agrees with json.Unmarshal, and serve.AppendMeasurement writes what
# it read back byte for byte), the CKC frontend on
# any source: a diagnostic or functions that verify, never a panic (cc's
# FuzzCompileKernel, seeded with the suite's kernels), the worker's
# reading of an explore request's archs against the strings.Fields
# spelling and json.Unmarshal into []string, and cli.AppendArch
# against FormatArch (cli's FuzzArchTuple), the
# traceparent header every submit may carry (obs's FuzzParseTraceParent:
# no panic, and what it takes re-renders as itself), the Prometheus
# exposition of metrics and adopted spans of any name (obs's
# FuzzExposition: it lints, declares no family twice, and every span
# label reads back as its name), and the custom-op
# codec every explore request's ops catalog and every op-carrying
# results document reaches (ir's FuzzParseFusedSpec: a spec or an
# error, never a panic, and what it takes renders to a text that parses
# back to itself). Long enough to replay the seed corpus and
# mutate it a few tens of thousands of times, short enough for every
# `make check`. Findings land under the package's testdata/fuzz/ and
# then fail plain `go test` too.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzHandlerPut$$' -fuzztime 5s ./internal/fleetcache/
	$(GO) test -run '^$$' -fuzz '^FuzzSkeletonBuilder$$' -fuzztime 5s ./internal/ddg/
	$(GO) test -run '^$$' -fuzz '^FuzzShardLine$$' -fuzztime 5s ./internal/evcache/
	$(GO) test -run '^$$' -fuzz '^FuzzResultsDocument$$' -fuzztime 5s ./internal/dse/
	$(GO) test -run '^$$' -fuzz '^FuzzSplitStatus$$' -fuzztime 5s ./internal/dist/
	$(GO) test -run '^$$' -fuzz '^FuzzCompileKernel$$' -fuzztime 5s ./internal/cc/
	$(GO) test -run '^$$' -fuzz '^FuzzArchTuple$$' -fuzztime 5s ./internal/cli/
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceParent$$' -fuzztime 5s ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzExposition$$' -fuzztime 5s ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzParseFusedSpec$$' -fuzztime 5s ./internal/ir/

# Extended verify: everything the tier-1 gate runs, plus vet,
# staticcheck (when installed), the race pass, the benchmark smoke, the
# benchmark module's own vet and tests and the fuzz smoke (see
# ROADMAP.md).
check: build vet staticcheck test race bench-smoke bench-module fuzz-smoke

# Every shipped cell runs: each non-failed cell of results_full.json
# (8 380) is compiled at its stored unroll factor, run through the
# physical register assignment on the reference workload and held to
# the golden model's outputs, its stored cycles and spills, and the
# profile (sim.Profile) of the interpreter's block visits; the same
# schedule then runs at every shorter L2 latency and must keep its
# outputs and cycles (TestAllShippedCellsRun, behind the `cells` build
# tag so tier 1 runs only its 198-cell slice, TestShippedCellsRun).
# About half a minute at 2 procs. Not part of `make check`; CI runs it
# right after.
cells:
	$(GO) vet -tags cells .
	$(GO) test -tags cells -run '^TestAllShippedCellsRun$$' -v -timeout 20m .

# Measure the fourteen layer benchmarks nothing else isolates and record
# them, with the environment they ran in, as the trajectory document
# (docs/PERFORMANCE.md, "Tracking the numbers"). A record, never a
# baseline: numbers from another day or host are not comparable.
bench:
	( $(GO) test -run '^$$' -bench . -benchmem ./internal/dse/ && \
	  $(GO) test -run '^$$' -bench BenchmarkSimRun -benchmem ./internal/sim/ && \
	  $(GO) test -run '^$$' -bench 'BenchmarkOneShot|BenchmarkWarmFit' -benchmem ./internal/core/ && \
	  $(GO) test -run '^$$' -bench 'BenchmarkShardStatus|BenchmarkFleetWarm' -benchmem ./internal/dist/ && \
	  $(GO) test -run '^$$' -bench BenchmarkExploreSubmit -benchmem ./internal/serve/ && \
	  $(GO) test -run '^$$' -bench BenchmarkFrontend -benchmem ./internal/cc/ ) | \
		$(GO) run ./cmd/cfp-benchjson -o BENCH_explore.json
	@echo wrote BENCH_explore.json

# The commit this tree is compared with, by bench-diff and by loc: HEAD
# when the tree has uncommitted changes, HEAD~1 when it is clean.
parent_rev = $$([ -z "$$(git status --porcelain)" ] && echo HEAD~1 || echo HEAD)

# The perf gate: this tree against its parent commit, measured side by
# side. The parent is HEAD when the tree has uncommitted changes and
# HEAD~1 when it is clean; its files are unpacked from the object store
# (git archive, as loc reads them) under .bench_build/, so it runs where
# git worktree cannot. The dse, sim, core, dist, serve and cc test
# binaries are built once per tree, and ten rounds run each benchmark
# on both binaries back to back at a fixed iteration count, alternating
# which tree goes first. cfp-benchjson then judges every (benchmark,
# metric): counts that repeat exactly on both sides are compared
# exactly, timings on the per-round change/parent ratio against the
# parent's own spread — so host drift fails nowhere and one more
# allocation or scheduled block fails everywhere (cmd/cfp-benchjson,
# docs/PERFORMANCE.md); a benchmark the parent does not have is reported
# and not gated. About a minute at 2 procs.
bench-diff:
	@set -e; out=$(CURDIR)/.bench_build/bench-diff; \
	rev=$(parent_rev); \
	rm -rf $$out; mkdir -p $$out/parent; \
	git archive -o $$out/parent.tar $$rev; tar -x -f $$out/parent.tar -C $$out/parent; \
	echo "bench-diff: parent is $$rev ($$(git rev-parse --short $$rev))"; \
	src() { [ $$1 = change ] && echo $(CURDIR) || echo $$out/parent; }; \
	for side in parent change; do for pkg in dse sim core dist serve cc; do \
		(cd $$(src $$side) && $(GO) test -c -o $$out/$$side-$$pkg.test ./internal/$$pkg/); \
	done; done; \
	for round in 1 2 3 4 5 6 7 8 9 10; do \
		order="parent change"; [ $$((round % 2)) = 1 ] || order="change parent"; \
		echo "bench-diff: round $$round of 10 ($$order)"; \
		for spec in dse:BenchmarkEvaluate:192x dse:BenchmarkEvaluateStarved:104x \
				dse:BenchmarkEvaluateDelta:20000x dse:BenchmarkEvaluateSearch:20000x \
				dse:BenchmarkExploreOpsSubset:3x dse:BenchmarkPrepare:10x \
				dse:BenchmarkWarmOpen:100x \
				sim:BenchmarkSimRun:50x core:BenchmarkOneShot:4x \
				core:BenchmarkWarmFit:100x dist:BenchmarkShardStatus:200x \
				dist:BenchmarkFleetWarm:100x \
				serve:BenchmarkExploreSubmit:500x cc:BenchmarkFrontend:100x; do \
			set -- $$(echo $$spec | tr : ' '); \
			for side in $$order; do \
				(cd $$(src $$side)/internal/$$1 && $$out/$$side-$$1.test -test.run '^$$' \
					-test.bench "^$$2\$$" -test.benchtime $$3 -test.timeout 10m) >> $$out/$$side.txt; \
			done; \
		done; \
	done; \
	$(GO) run ./cmd/cfp-benchjson -against $$out/parent.txt < $$out/change.txt

# Lines of non-test Go outside benchmark/, per package and in total, for
# the parent commit and for this tree: the number a simplicity PR
# reports (ROADMAP.md, aim 2). The parent is bench-diff's (parent_rev)
# and is read from the object store, so nothing is checked out.
# Untracked files count on this tree's side unless ignored. A report,
# not a gate: not part of `make check`.
loc:
	@rev=$(parent_rev); \
	echo "loc: parent is $$rev ($$(git rev-parse --short $$rev))"; \
	{ git grep -c '' $$rev -- '*.go' ':!*_test.go' ':!benchmark/' | sed 's/^[^:]*:/parent /'; \
	  git grep -c --untracked '' -- '*.go' ':!*_test.go' ':!benchmark/' | sed 's/^/change /'; } | \
	awk '{ n = split($$2, f, ":"); pkg = substr($$2, 1, length($$2) - length(f[n]) - 1); \
		if (!sub("/[^/]*$$", "", pkg)) pkg = "."; \
		lines[$$1, pkg] += f[n]; lines[$$1, "total"] += f[n]; pkgs[pkg] = 1 } \
	function row(p) { return sprintf("%-24s %7d %7d %+7d\n", p, lines["parent", p], lines["change", p], \
		lines["change", p] - lines["parent", p]) } \
	END { printf "%-24s %7s %7s %7s\n", "package", "parent", "change", "delta"; \
		for (p in pkgs) printf "%s", row(p) | "sort"; close("sort"); printf "%s", row("total") }'
