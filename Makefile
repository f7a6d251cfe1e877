# Build, test and static-analysis entry points. CI runs `make ci`.

GO ?= go
# BENCHTIME scales the benchmark harness: 1x for smoke runs (the default),
# a duration like 2s for stable regression numbers.
BENCHTIME ?= 1x
BENCHOUT ?= BENCH_core.json
# Pinned static-analysis tool versions: CI installs exactly these, so a
# toolchain release never changes what the gate enforces under your feet.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: all build test race fmtcheck vet lint latchlint vulncheck charvet perfbenchcheck tracesmoke delaysmoke surfsmoke batchsmoke servesmoke clustersmoke benchserve bench benchsmoke mcsmoke fuzzsmoke ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race is the concurrency gate: the race detector plus shuffled test order,
# so order-dependent state (write-once globals, cached singletons) cannot
# hide behind a fixed schedule.
race:
	$(GO) test -race -shuffle=on ./...

# fmtcheck fails when any tracked Go file is not gofmt-formatted; gofmt -l
# lists the offenders.
fmtcheck:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$out" ]; then echo "gofmt: files need formatting:"; echo "$$out"; exit 1; fi

# vet runs Go's own static analysis plus charvet over every shipped
# characterization setup: the built-in cells and each example netlist.
vet: charvet
	$(GO) vet ./...

# lint is the full source-level gate: gofmt, go vet, charvet over the
# shipped setups, the latchlint pass suite over the whole tree, and
# staticcheck when installed at the pinned version (environments without it
# skip with a notice instead of failing the build).
lint: fmtcheck vet latchlint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# latchlint enforces the codebase's own invariants (ctxpair, obsspan,
# counterreg, optvalidate, nakedgoroutine, deprecated — see DESIGN.md §11).
latchlint:
	$(GO) run ./cmd/latchlint ./...

# vulncheck scans the module against the Go vulnerability database when
# govulncheck is installed; environments without it (or without network
# access) skip with a notice instead of failing the build.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

charvet:
	$(GO) run ./cmd/charvet -cell tspc
	$(GO) run ./cmd/charvet -cell c2mos
	$(GO) run ./cmd/charvet -cell tgate
	$(GO) run ./cmd/charvet examples/netlists/*.cir

# perfbenchcheck vets and tests the nested perfbench module, which the
# root's `go build ./...` and `go test ./...` skip: a public-API change
# (EvalConfig, transient.Stats) that breaks the benchmark fails here.
perfbenchcheck:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# SMOKE_OUTDIR receives the tracesmoke, delaysmoke, surfsmoke and mcsmoke outputs:
# event traces, contours, surfaces and the captured -v summaries (CI points
# it at artifacts/ and uploads them).
SMOKE_OUTDIR ?= /tmp/latchchar-smoke

# tracesmoke runs a reduced-grid characterization with event tracing on,
# prints its -v summary and validates the JSONL stream with tracecheck.
tracesmoke:
	mkdir -p $(SMOKE_OUTDIR)
	$(GO) run ./cmd/latchchar -cell tspc -points 6 -both=false -v \
		-trace $(SMOKE_OUTDIR)/trace.jsonl -chrometrace $(SMOKE_OUTDIR)/trace.json \
		-o $(SMOKE_OUTDIR)/contour.csv 2> $(SMOKE_OUTDIR)/summary.txt
	cat $(SMOKE_OUTDIR)/summary.txt
	$(GO) run ./cmd/tracecheck $(SMOKE_OUTDIR)/trace.jsonl

# delaysmoke runs a 6×6 clock-to-Q delay surface (BruteForceDelay: every
# sample's transient stops at the output crossing) with event tracing on,
# writes the surface and its iso-delay contour, prints the -v summary and
# validates the JSONL stream with tracecheck.
delaysmoke:
	mkdir -p $(SMOKE_OUTDIR)
	$(GO) run ./cmd/surfgen -cell tspc -delay -n 6 -v \
		-trace $(SMOKE_OUTDIR)/delay-trace.jsonl -surface $(SMOKE_OUTDIR)/delay-surface.csv \
		-contour $(SMOKE_OUTDIR)/delay-contour.csv 2> $(SMOKE_OUTDIR)/delay-summary.txt
	cat $(SMOKE_OUTDIR)/delay-summary.txt
	$(GO) run ./cmd/tracecheck $(SMOKE_OUTDIR)/delay-trace.jsonl

# surfsmoke runs a 12×12 output-level surface (BruteForce) on four workers
# with event tracing on, writes the surface and its extracted contour,
# prints the -v summary (its "checkpoint" line counts the steps the rows
# resumed from the evaluators' rest trails) and validates the JSONL stream
# with tracecheck; the same surface on one worker must be byte-identical.
surfsmoke:
	mkdir -p $(SMOKE_OUTDIR)
	$(GO) run ./cmd/surfgen -cell tspc -n 12 -workers 4 -v \
		-trace $(SMOKE_OUTDIR)/surf-trace.jsonl -surface $(SMOKE_OUTDIR)/surf-surface.csv \
		-contour $(SMOKE_OUTDIR)/surf-contour.csv 2> $(SMOKE_OUTDIR)/surf-summary.txt
	$(GO) run ./cmd/surfgen -cell tspc -n 12 -workers 1 -v \
		-trace $(SMOKE_OUTDIR)/surf1-trace.jsonl -surface $(SMOKE_OUTDIR)/surf1-surface.csv \
		-contour $(SMOKE_OUTDIR)/surf1-contour.csv 2> $(SMOKE_OUTDIR)/surf1-summary.txt
	cmp $(SMOKE_OUTDIR)/surf-surface.csv $(SMOKE_OUTDIR)/surf1-surface.csv
	cat $(SMOKE_OUTDIR)/surf-summary.txt
	$(GO) run ./cmd/tracecheck $(SMOKE_OUTDIR)/surf-trace.jsonl
	$(GO) run ./cmd/tracecheck $(SMOKE_OUTDIR)/surf1-trace.jsonl

# batchsmoke exercises the batch engine end to end on a reduced grid: a
# 4-corner warm-started sweep that must spend fewer seed transients than
# four cold characterizations (the warm-start acceptance test).
batchsmoke:
	$(GO) test -run TestBatchWarmStartFewerSims -v .

# servesmoke boots the latchchard daemon on a random port, characterizes the
# TSPC cell through the HTTP API, checks the metrics exposition (promtool-style
# lint), /statusz well-formedness and drains it via SIGTERM; a second boot
# with a tiny job timeout must leave a validating flight-recorder dump in
# SMOKE_DUMPDIR (CI uploads it as an artifact).
SMOKE_DUMPDIR ?= /tmp/latchchard-smoke-dumps
servesmoke:
	LATCHCHARD_SMOKE_DUMPDIR=$(SMOKE_DUMPDIR) $(GO) test -run TestServeSmoke -v ./cmd/latchchard

# clustersmoke boots two mock-mode workers plus a coordinator in one test
# process, pushes a few seconds of mixed load (hot cells, cold netlists,
# streamed jobs) through the public serveclient API, then checks fleet
# /statusz aggregation, metrics lint, the deprecated-alias 308 and a clean
# SIGTERM drain of all three daemons (DESIGN.md §15).
clustersmoke:
	$(GO) test -run TestClusterSmoke -v ./cmd/latchchard

# benchserve regenerates BENCH_serve.json: the serving-layer scaling curve
# (throughput and latency percentiles vs worker count) measured with
# cmd/latchload against mock-service-time workers. See the script header for
# methodology.
benchserve:
	./scripts/benchserve.sh

# bench runs the core benchmark set — root characterization contours,
# the transient inner loop and the sparse LU kernels — and converts the
# combined benchfmt stream into $(BENCHOUT) (benchjson JSON: ns/op plus the
# custom sims / sims/point / factorizations metrics). Benchmark names carry
# mode= (exact / blockK) and p= (concurrency) components so the comparison
# only diffs like-for-like; the mode=exact vs mode=block8 sub-benchmarks of
# BenchmarkEulerNewton*, BenchmarkSurfaceTSPC and BenchmarkMonteCarloTSPC
# carry the scalar and block-transient regression numbers. Use BENCHTIME=2s
# for stable wall-clock comparisons.
# -cpu 1 keeps the GOMAXPROCS suffix ("-4") off the benchmark names, so a run
# on a machine of any size matches the committed baseline by name; every
# benchmark in the set is sequential (p=1) anyway.
bench:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -cpu 1 \
		. ./internal/transient ./internal/sparse | tee bench.out.txt
	$(GO) run ./cmd/benchjson -o $(BENCHOUT) bench.out.txt
	@rm -f bench.out.txt

# benchsmoke is the CI gate: a 1x pass over the same set, requiring the
# harness to run end to end and the scalar and block sub-benchmarks to be
# present in the JSON, then diffed against the committed BENCH_core.json
# baseline.
# The diff gates at a wide 50% tolerance — a single-iteration smoke run is
# noisy, but a 2x wall-clock blowup on a macro benchmark is a real
# regression, not noise. Two escape hatches keep the gate honest: -min-ns
# downgrades slowdowns on sub-50ms kernels a 1x pass cannot measure, and
# -warn-match gives freshly landed Monte-Carlo benchmarks a grace period
# until their baselines stabilize. Use `make bench BENCHTIME=2s` locally
# plus `benchjson -compare` at a tight tolerance for a precise check.
SMOKE_BENCHOUT ?= /tmp/bench-smoke.json
benchsmoke:
	$(MAKE) bench BENCHTIME=1x BENCHOUT=$(SMOKE_BENCHOUT)
	@grep -q 'BenchmarkEulerNewtonTSPC/mode=exact' $(SMOKE_BENCHOUT) || \
		{ echo "benchsmoke: scalar contour benchmark missing from $(SMOKE_BENCHOUT)"; exit 1; }
	@grep -q 'mode=block8' $(SMOKE_BENCHOUT) || \
		{ echo "benchsmoke: block-transient benchmark missing from $(SMOKE_BENCHOUT)"; exit 1; }
	$(GO) run ./cmd/benchjson -compare -warn-match 'MonteCarlo' -min-ns 5e7 \
		-tolerance 50 BENCH_core.json $(SMOKE_BENCHOUT)

# mcsmoke runs a reduced variance-aware Monte-Carlo characterization through
# the CLI — quasi-MC sampling, nominal-contour warm starts, sigma-band CSV —
# with event tracing on, prints its summary and validates the trace stream
# with tracecheck.
mcsmoke:
	mkdir -p $(SMOKE_OUTDIR)
	$(GO) run ./cmd/latchchar -cell tspc -points 8 -mc 3 \
		-sampler lhs -seed 5 -probes 4 \
		-trace $(SMOKE_OUTDIR)/mc-trace.jsonl -o $(SMOKE_OUTDIR)/sigma.csv \
		2> $(SMOKE_OUTDIR)/mc-summary.txt
	cat $(SMOKE_OUTDIR)/mc-summary.txt
	$(GO) run ./cmd/tracecheck $(SMOKE_OUTDIR)/mc-trace.jsonl

# fuzzsmoke runs each native fuzz target for 15 s: FuzzLU (sparse LU
# factorization, refactorization and solve against the dense reference),
# FuzzParse (the netlist parser; every deck that builds is also assembled at
# two states, and its C must be symmetric and the same at both, bit for
# bit), FuzzResolve (the wire codec: bytes decoded as the HTTP handlers
# decode a characterize request, then resolved; no panic, and an accepted
# request gets a real coalescing key that fast_path does not move, and a
# cell that builds or fails with an error), FuzzHistory (the packed
# event history a served job keeps for replay: arbitrary events come back
# from it as appended, field for field) and FuzzOptionsValidate (Options,
# SurfaceOptions and MCOptions filled field by field from arbitrary bytes:
# Validate never panics, and every rejection is an *OptionError wrapping
# ErrInvalidOptions). A failing input is saved under
# the package's testdata/fuzz/ and replays as a regular test from then on.
# FuzzResolve caps the minimization of each new input at 100 runs: the JSON
# decoder finds new coverage so often that the default 60 s minimization
# budget per input would spend the whole 15 s on the first few.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLU$$' -fuzztime 15s ./internal/sparse
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 15s ./internal/netlist
	$(GO) test -run '^$$' -fuzz '^FuzzResolve$$' -fuzztime 15s -fuzzminimizetime 100x ./internal/serve/jobcore
	$(GO) test -run '^$$' -fuzz '^FuzzHistory$$' -fuzztime 15s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzOptionsValidate$$' -fuzztime 15s .

ci: build lint perfbenchcheck vulncheck race tracesmoke delaysmoke surfsmoke batchsmoke servesmoke clustersmoke mcsmoke fuzzsmoke benchsmoke

clean:
	$(GO) clean ./...
