# Convenience targets for the reproduction. Everything is plain `go`;
# the Makefile only records the canonical invocations.

GO ?= go

.PHONY: all build test vet lint lint-baseline bench benchgate gobench short check fuzz cover results results-check clean

all: build vet test

# The full pre-merge gate: static checks (go vet + the project's own
# emlint analyzers), the whole test suite under the race detector, and a
# short fuzz smoke over the trace reader.
check: build vet lint
	$(GO) test -race ./...
	$(MAKE) fuzz

# Short fuzzing smoke: arbitrary bytes through the trace reader and the
# checkpoint reader must produce a typed error or a clean result, never
# a panic, a trace reader resumed at any position a full replay
# recorded must decode exactly the suffix of its records with its
# verdict, arbitrary line streams through the bucketed LRU stack must
# match its exact-depth oracle, and arbitrary operation streams through
# the set-associative cache must match its naive LRU oracle. Extend
# FUZZTIME for a real fuzzing session. The checkpoint and resume targets
# cap input minimization at 200 runs: each run of theirs decodes a whole
# input many times over, and the default 60 s per new input stalls a
# short smoke at 0 execs/s.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzReplay -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzResume -fuzztime=$(FUZZTIME) -fuzzminimizetime=200x ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzCheckpointRestore -fuzztime=$(FUZZTIME) -fuzzminimizetime=200x ./internal/machine
	$(GO) test -run=^$$ -fuzz=FuzzStack -fuzztime=$(FUZZTIME) ./internal/lrustack
	$(GO) test -run=^$$ -fuzz=FuzzSetAssoc -fuzztime=$(FUZZTIME) ./internal/cache

# Coverage gate: total statement coverage must stay above the ratchet
# floor in ci/coverage.ratchet. After genuinely adding coverage, lift
# the floor with `go run ./cmd/covergate -profile coverage.out -update`.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) run ./cmd/covergate -profile coverage.out -ratchet ci/coverage.ratchet

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis: build emlint (the four analyzers
# of internal/analysis, see DESIGN.md par.8 and par.14) and run them in
# one package-load pass over the module. Findings triaged in
# ci/emlint.baseline are reported but do not fail the run; anything new
# exits nonzero. LINT_FORMAT selects text (stderr), json or sarif;
# LINT_OUT redirects the json/sarif report to a file (what CI uploads).
# staticcheck and govulncheck run too when installed; the container
# image for CI does not ship them, so they are gated rather than
# required.
LINT_FORMAT ?= text
LINT_BASELINE ?= ci/emlint.baseline
lint:
	$(GO) build -o bin/emlint ./cmd/emlint
	bin/emlint -format $(LINT_FORMAT) $(if $(LINT_OUT),-o $(LINT_OUT)) -baseline $(LINT_BASELINE) ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not installed; skipping"; fi

# Regenerate the triage baseline from the current findings, then show
# the diff loudly: every added line must gain a `#` triage reason in
# review before it lands, every removed line is a debt paid off.
lint-baseline:
	$(GO) build -o bin/emlint ./cmd/emlint
	bin/emlint -baseline $(LINT_BASELINE) -write-baseline ./...
	@echo "--- $(LINT_BASELINE) diff (annotate additions with a triage reason) ---"
	@git --no-pager diff -- $(LINT_BASELINE)

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

# Benchmark report: hot-path ns/ref + allocs/op per machine config and
# the serial-vs-parallel sweep speedup, as JSON. DESIGN.md ("Reading
# BENCH_simulator.json") documents the fields.
bench:
	$(GO) run ./cmd/benchreport -o BENCH_simulator.json -history BENCH_history.jsonl
	cat BENCH_simulator.json

# The CI perf ratchet: same measurement, but fail on a >5% ns/ref
# regression against the best comparable run recorded in
# BENCH_history.jsonl (same cpus/GOMAXPROCS/batch length), or on any
# hot-path allocation.
benchgate:
	$(GO) run ./cmd/benchreport -o BENCH_simulator.json -history BENCH_history.jsonl -gate
	cat BENCH_simulator.json

# The raw go-test benchmarks (ns/op + allocs/op per benchmark).
gobench:
	$(GO) test -bench=. -benchmem ./...

# Full-scale regeneration of every table and figure (≈2.5 min wall and
# ≈4 CPU-min on a 2-vCPU host).
# RESULTS_DIR redirects the output (results-check writes to a temp dir).
RESULTS_DIR ?= results
results:
	mkdir -p $(RESULTS_DIR)
	$(GO) run ./cmd/affinityviz            > $(RESULTS_DIR)/fig3.txt
	$(GO) run ./cmd/lruprofile -instr 40000000  > $(RESULTS_DIR)/fig45_40M.txt
	$(GO) run ./cmd/tables     -instr 100000000 > $(RESULTS_DIR)/tables_100M.txt

# Regenerate every committed table and figure into a temp dir with the
# exact `results` invocations and cmp each against results/: a change
# that moves a committed number fails here until results/ is
# regenerated on purpose.
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(MAKE) --no-print-directory results RESULTS_DIR="$$tmp" && \
	for f in fig3.txt fig45_40M.txt tables_100M.txt; do \
		cmp results/$$f "$$tmp/$$f" || exit 1; \
	done && echo "results-check: results/ matches a fresh regeneration"

clean:
	rm -rf results test_output.txt bench_output.txt BENCH_simulator.json
