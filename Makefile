# Standard development targets for the CDSF reproduction.
#
#   make check   default: build + vet + test + race + cover in one gate,
#                then the Stage-II drill-down once (bench-stage2 at
#                BENCHTIME=1x), so a Stage-II benchmark that stops
#                compiling or fails its own sanity check fails the gate
#   make build   compile every package and command
#   make vet     run go vet across the module
#   make test    run the full test suite
#   make race    run the full test suite under the race detector
#   make cover   enforce the coverage floor on the observability and
#                service packages (internal/tracing, internal/metrics,
#                internal/runner, internal/api, internal/server,
#                internal/events, internal/store), the
#                PMF kernels (internal/pmf), the solve cache
#                (internal/cache), the Stage-II simulator (internal/sim)
#                and its DLS techniques (internal/dls), and the DAG code
#                paths (internal/sysmodel, internal/ra,
#                internal/robustness)
#   make bench   run the benchmark suite with allocation stats
#   make bench-pmf  refresh the PMF backend comparison behind
#                BENCH_PMF2.json (sparse vs grid kernels, solve) and
#                the DAG drill-downs (sparse composition, the final
#                evaluation cold against an evaluation-tier hit, warm
#                grid and warm sparse table bytes per instance)
#   make bench-stage1  the Stage-I drill-down behind BENCH_STAGE1.json:
#                every registered heuristic on the paper instance, the
#                exhaustive search from 1 application to 10x48, and one
#                tabu walk on the DAG service shape
#   make bench-stage2  the Stage-II drill-down under the paper-scenario
#                row: the paper's scenario 4 (Figure 6), one of its
#                cells (application 3, case 1, 60 repetitions) and one
#                simulated run per DLS technique
#   make bench-cache  refresh the solve-cache comparison behind
#                BENCH_CACHE.json (result-tier replay, warm tables,
#                delta-solve)
#   make bench-store  the job-store drill-down under the peak_rss_mb
#                row: one dag-service-sized job lifecycle per op on the
#                memory and WAL stores, with the heap each finished
#                job keeps (retained-B/job)
#   make fuzz    run each fuzz target briefly (pmf kernels including
#                the binned AddCompact, DAG validation, WAL replay, the
#                batched Stage-II cost draws)
#   make serve   build and run the cdsfd scheduling service locally
#   make smoke-sse  end-to-end smoke: a real cdsfd subprocess streams a
#                seeded solve job's full event log (derived from its
#                store records) over SSE
#   make smoke-dag  end-to-end smoke: a real cdsfd subprocess solves a
#                seeded fork-join DAG with heft and the result matches
#                the direct library computation bit for bit
#   make test-e2ebench  vet and test the end-to-end benchmark module
#                (e2ebench/, a separate Go module that imports this
#                one's internal packages, so the root build and test
#                targets never compile it)
#   make bench-e2e  run the end-to-end benchmark (e2ebench/run.sh)
#                on the two gated workloads of BENCHMARK.json,
#                dag-service and paper-scenario, each through a real
#                cdsfd for 50 s; one JSON summary line per workload

GO ?= go

# Minimum statement coverage (percent) for the floored packages.
COVER_FLOOR ?= 85

# Packages held to the coverage floor.
COVER_PKGS ?= ./internal/tracing ./internal/metrics ./internal/runner ./internal/api ./internal/server ./internal/pmf ./internal/cache ./internal/events ./internal/store ./internal/sim ./internal/dls ./internal/sysmodel ./internal/ra ./internal/robustness

# -benchtime of `make bench-stage2`; `make check` runs it at 1x.
BENCHTIME ?= 1s

# Listen address for `make serve`.
SERVE_ADDR ?= 127.0.0.1:8080

.PHONY: check build vet test race cover bench bench-pmf bench-stage1 bench-stage2 bench-cache bench-store bench-e2e fuzz serve smoke-sse smoke-dag test-e2ebench

check: build vet test race cover test-e2ebench smoke-dag
	$(MAKE) bench-stage2 BENCHTIME=1x

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	@for pkg in $(COVER_PKGS); do \
		pct=$$($(GO) test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$pkg"; exit 1; fi; \
		ok=$$(echo "$$pct $(COVER_FLOOR)" | awk '{print ($$1 >= $$2) ? 1 : 0}'); \
		if [ "$$ok" != 1 ]; then echo "cover: $$pkg at $$pct% is below the $(COVER_FLOOR)% floor"; exit 1; fi; \
		echo "cover: $$pkg $$pct% (floor $(COVER_FLOOR)%)"; \
	done

bench:
	$(GO) test -bench=. -benchmem .

# The raw numbers feeding BENCH_PMF2.json: the sparse reference kernels
# (PMFOps), the sparse-vs-grid backend comparison on Stage-I-shaped
# workloads (PMFBackends), and the end-to-end solve under each backend;
# plus the DAG drill-downs: the sparse composition of one DAG-service
# instance (ComposeDAG), its third layer's binned Add steps against the
# Add-then-Compact fold (AddCompact), a DAG job's final evaluation
# composed cold against read from the cache's evaluation tier
# (EvaluateDAG), and the warm-tier bytes its grid and sparse tables
# leave in the cache (WarmGridTable, WarmSparseTable, reported as
# warm_KiB/instance).
bench-pmf:
	$(GO) test -run=xxx -bench 'BenchmarkPMFOps|BenchmarkPMFBackends|BenchmarkSolveBackends|BenchmarkEvalTableBuild|BenchmarkComposeDAG|BenchmarkAddCompact|BenchmarkEvaluateDAG|BenchmarkWarmGridTable|BenchmarkWarmSparseTable' -benchmem .

# The Stage-I drill-down behind BENCH_STAGE1.json: every registered
# heuristic on the paper instance (RAHeuristic), the exhaustive search
# on the paper instance's first 1-3 applications and on 6x24 and 10x48
# synthetic instances (ExhaustiveEnumeration), and one tabu walk on the
# DAG service shape, several seconds per op (TabuDAG).
bench-stage1:
	$(GO) test -run=xxx -bench 'BenchmarkRAHeuristic|BenchmarkExhaustiveEnumeration|BenchmarkTabuDAG' -benchmem .

# The Stage-II drill-down under the paper-scenario row of the end-to-end
# benchmark: scenario 4 over the paper's four availability cases
# (Figure6), its application-3 case-1 cell at 60 repetitions
# (StageIICell) and one simulated run of the paper's application 3 per
# DLS technique (DLSTechnique).
bench-stage2:
	$(GO) test -run=xxx -bench 'BenchmarkFigure6|BenchmarkStageIICell|BenchmarkDLSTechnique' -benchmem -benchtime=$(BENCHTIME) .

# The raw numbers feeding BENCH_CACHE.json: result-tier replay at the
# service layer (cold solve vs byte-identical repeat), warm evaluation
# tables, and the delta-solve deadline sweep.
bench-cache:
	$(GO) test -run=xxx -bench 'BenchmarkCacheServer|BenchmarkCacheWarmTable|BenchmarkCacheDeltaSolve' -benchmem .

# The job-store drill-down under the peak_rss_mb row of the end-to-end
# benchmark: one dag-service-sized lifecycle (2.4 KB request, six
# events, 3.6 KB result) per op on each backend (JobLifecycle), with
# the live heap each finished job leaves behind as retained-B/job.
bench-store:
	$(GO) test -run=xxx -bench 'BenchmarkJobLifecycle' -benchmem ./internal/store

fuzz:
	$(GO) test -run=xxx -fuzz=FuzzNew -fuzztime=10s ./internal/pmf
	$(GO) test -run=xxx -fuzz=FuzzCombineMerge -fuzztime=10s ./internal/pmf
	$(GO) test -run=xxx -fuzz=FuzzCombineOrder -fuzztime=10s ./internal/pmf
	$(GO) test -run=xxx -fuzz=FuzzRebin -fuzztime=10s ./internal/pmf
	$(GO) test -run=xxx -fuzz=FuzzGridSparse -fuzztime=10s ./internal/pmf
	$(GO) test -run=xxx -fuzz=FuzzAddCompact -fuzztime=10s ./internal/pmf
	$(GO) test -run=xxx -fuzz=FuzzDAGValidate -fuzztime=10s ./internal/sysmodel
	$(GO) test -run=xxx -fuzz=FuzzWALReplay -fuzztime=10s ./internal/store
	$(GO) test -run=xxx -fuzz=FuzzFill -fuzztime=10s ./internal/stats

serve:
	$(GO) run ./cmd/cdsfd -addr $(SERVE_ADDR)

smoke-sse:
	$(GO) test -run TestSmokeSSE -count=1 -v ./cmd/cdsfd

smoke-dag:
	$(GO) test -run TestSmokeDAG -count=1 -v ./cmd/cdsfd

test-e2ebench:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# The end-to-end rows every performance claim is judged by. Other
# workloads, seeds and the traced per-layer run: call e2ebench/run.sh
# directly (see its header).
bench-e2e:
	for w in dag-service paper-scenario; do \
		bash e2ebench/run.sh --workload $$w --seed 1 --seconds 50 --trace 0 || exit 1; \
	done
