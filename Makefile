# Correctness gate for the Magnet reproduction. `make check` is what CI
# runs: build, tests, go vet, the repo's own magnet-vet analyzers, the race
# detector, and short fuzz passes over the parser and tokenizer.

GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet magnet-vet vet-budget fuzz race-par obs-check bench-json bench-parallel segments segments-check load-check plan-check check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The project's own static analyzers (internal/analysis): per-package
# invariants (locking discipline, float equality, error wrapping,
# map-iteration determinism, context-first signatures) plus the
# interprocedural passes (hot-path allocation freedom, publish-then-freeze
# immutability, cross-call lock requirements). Findings are filtered
# through the committed baseline; anything new — or any stale baseline
# entry — exits non-zero.
magnet-vet:
	$(GO) run ./cmd/magnet-vet -baseline magnet-vet.baseline ./...

# Wall-clock guard for the analysis suite: the interprocedural engine
# (module load, call graph, fact fixpoints) must stay fast enough to run
# on every check. Prints the measured time and fails past VETBUDGET
# seconds. The budget is deliberately generous — it catches regressions
# that make the fixpoint quadratic, not scheduler jitter.
VETBUDGET ?= 60
vet-budget:
	@$(GO) build -o /tmp/magnet-vet-budget ./cmd/magnet-vet
	@start=$$(date +%s); \
	/tmp/magnet-vet-budget -baseline magnet-vet.baseline ./... || exit 1; \
	end=$$(date +%s); elapsed=$$((end-start)); \
	echo "magnet-vet wall clock: $${elapsed}s (budget $(VETBUDGET)s)"; \
	if [ $$elapsed -gt $(VETBUDGET) ]; then \
		echo "magnet-vet exceeded its $(VETBUDGET)s budget" >&2; exit 1; \
	fi

# Short fuzz passes over every fuzz target; bump FUZZTIME for a deeper run.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/qlang/
	$(GO) test -run='^$$' -fuzz=FuzzTokenize -fuzztime=$(FUZZTIME) ./internal/text/
	$(GO) test -run='^$$' -fuzz=FuzzStem -fuzztime=$(FUZZTIME) ./internal/text/
	$(GO) test -run='^$$' -fuzz=FuzzReadNTriples -fuzztime=$(FUZZTIME) ./internal/rdf/
	$(GO) test -run='^$$' -fuzz=FuzzItemSetOps -fuzztime=$(FUZZTIME) ./internal/itemset/
	$(GO) test -run='^$$' -fuzz=FuzzSegmentHeader -fuzztime=$(FUZZTIME) ./internal/segment/
	$(GO) test -run='^$$' -fuzz=FuzzManifest -fuzztime=$(FUZZTIME) ./internal/segment/
	$(GO) test -run='^$$' -fuzz=FuzzPlanEquivalence -fuzztime=$(FUZZTIME) ./internal/plan/

# Focused race pass over the parallel pipeline: the internal/par pool
# stress tests and every serial-vs-parallel equivalence/determinism test.
race-par:
	$(GO) test -race -run 'Pool|Submit|Batch|Panic|Cancel|Nested|Parallel|Equiv|Determinism|Merge|ByAdvisor|Centroid' \
		./internal/par/ ./internal/blackboard/ ./internal/analysts/ ./internal/facets/ ./internal/index/ ./internal/vsm/

# Observability gate: the flight-recorder and exposition goldens (ring
# retention, Prometheus text format, /debug/traces JSON) plus the
# recorder's concurrency tests under the race detector, and the
# end-to-end slow-step capture through the web layer and the session.
obs-check:
	$(GO) test -race ./internal/obs/
	$(GO) test -race -run 'FlightRecorder|SlowStep' ./internal/web/ ./internal/core/

# Machine-readable benchmark snapshot: every benchmark with -benchmem,
# converted to BENCH_<date>.json (see cmd/benchjson) for cross-PR diffing.
BENCHDATE := $(shell date +%Y-%m-%d)
bench-json:
	$(GO) test -run='^$$' -bench=. -benchmem ./... | $(GO) run ./cmd/benchjson > BENCH_$(BENCHDATE).json
	@echo wrote BENCH_$(BENCHDATE).json

# Per-worker-count results for the parallel fan-out seams (facet overview,
# similarity scan, batch indexing, analyst pane) at 1, 4 and GOMAXPROCS
# workers, in the same BENCH json format.
bench-parallel:
	$(GO) test -run='^$$' -bench='^BenchmarkParallel' -benchmem . | $(GO) run ./cmd/benchjson > BENCH_$(BENCHDATE).json
	@echo wrote BENCH_$(BENCHDATE).json

# Compile the standard segment sets for serving: the paper-scale recipes
# corpus and the inbox dataset, into segments/.
segments:
	$(GO) run ./cmd/magnet-build -out segments/recipes -dataset recipes -recipes 2000
	$(GO) run ./cmd/magnet-build -out segments/inbox -dataset inbox

# End-to-end durability gate for the on-disk format: build a small set,
# verify it, corrupt one payload byte and confirm verification rejects it,
# then rebuild and confirm serving output is byte-identical to in-memory
# (the magnet-eval fig1 render over both backings).
segments-check:
	@rm -rf /tmp/magnet-segcheck && set -e; \
	$(GO) run ./cmd/magnet-build -out /tmp/magnet-segcheck -recipes 100; \
	$(GO) run ./cmd/magnet-build -verify /tmp/magnet-segcheck; \
	printf '\xff' | dd of=/tmp/magnet-segcheck/graph.seg bs=1 seek=4096 count=1 conv=notrunc status=none; \
	if $(GO) run ./cmd/magnet-build -verify /tmp/magnet-segcheck 2>/dev/null; then \
		echo "segments-check: corrupted set passed verification" >&2; exit 1; \
	fi; \
	echo "segments-check: corruption detected as expected"; \
	$(GO) run ./cmd/magnet-build -out /tmp/magnet-segcheck -recipes 100; \
	$(GO) run ./cmd/magnet-eval -exp fig1 -recipes 100 > /tmp/magnet-segcheck-mem.txt; \
	$(GO) run ./cmd/magnet-eval -exp fig1 -recipes 100 -segments /tmp/magnet-segcheck > /tmp/magnet-segcheck-seg.txt; \
	cmp /tmp/magnet-segcheck-mem.txt /tmp/magnet-segcheck-seg.txt; \
	echo "segments-check: segment-backed render byte-identical"; \
	rm -rf /tmp/magnet-segcheck /tmp/magnet-segcheck-mem.txt /tmp/magnet-segcheck-seg.txt

# Serving-load gate: a short deterministic magnet-load smoke run — many
# concurrent simuser sessions against one shared instance — built and run
# under the race detector, with a vet-budget-style wall-clock guard.
# Catches session-concurrency races that unit tests are too small to hit.
LOADBUDGET ?= 120
load-check:
	@$(GO) build -race -o /tmp/magnet-load-check ./cmd/magnet-load
	@start=$$(date +%s); \
	/tmp/magnet-load-check -recipes 400 -sessions 40 -concurrency 8 -out "" || exit 1; \
	end=$$(date +%s); elapsed=$$((end-start)); \
	echo "magnet-load wall clock: $${elapsed}s (budget $(LOADBUDGET)s)"; \
	if [ $$elapsed -gt $(LOADBUDGET) ]; then \
		echo "magnet-load exceeded its $(LOADBUDGET)s budget" >&2; exit 1; \
	fi

# Planner gate: the planned-vs-naive byte-identity suite (both backings,
# plus the fuzz corpus replayed as unit cases and the shared
# delta-cache race test), then a magnet-load smoke run that fails unless
# the navigation-delta cache actually absorbs the session's refine steps —
# a planner that silently stops caching would still be byte-identical, so
# the hit-rate gate is what catches it.
plan-check:
	$(GO) test -race ./internal/plan/
	$(GO) test -race -run 'Plan|Within|KeysCache' ./internal/query/ ./internal/core/ .
	@$(GO) build -o /tmp/magnet-plan-check ./cmd/magnet-load
	@/tmp/magnet-plan-check -recipes 400 -sessions 40 -concurrency 8 -out "" -min-plan-hit-rate 0.5

check: build vet vet-budget test race race-par obs-check fuzz segments-check load-check plan-check bench-json
