GO ?= go
FUZZTIME ?= 10s
BENCH_JSON ?= BENCH_10.json
# bench-diff / perf-gate knobs: the committed baseline to diff against,
# and the relative tolerance applied to allocs/op (work counters and
# qubit counts always compare exactly; see cmd/benchdiff).
BASE ?= BENCH_10.json
TOL ?= 0.1

.PHONY: check build vet fmt test race bench bench-json bench-diff perf-gate fault-demo fuzz-smoke daemon-smoke

# check is the CI gate: vet + formatting + full shuffled tests + the
# race detector over every package.
check: vet fmt test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# -shuffle=on randomizes test order so hidden inter-test state cannot
# hide; the shuffle seed is printed on failure for replay.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# bench-json runs the paper-metric benchmarks and converts the text
# output into a machine-readable $(BENCH_JSON) artifact — custom
# metrics like the annealer's flips/s survive verbatim. The root
# tables/figures are full experiments, so they run once; the hot-path
# packages (sa, tabu, cqm, serve) run 100 warm iterations with -benchmem
# so their per-op timings and allocs/op are measurements, not cold
# single-shot noise. The intermediate text file is truncated up front
# and removed even when a bench run fails, so an aborted run cannot
# leave a stale $(BENCH_JSON).txt behind or feed it to a later convert.
bench-json:
	@rm -f $(BENCH_JSON).txt
	$(GO) test -run=^$$ -bench=. -benchtime=1x . > $(BENCH_JSON).txt || { rm -f $(BENCH_JSON).txt; exit 1; }
	$(GO) test -run=^$$ -bench=. -benchtime=100x -benchmem ./internal/sa ./internal/tabu ./internal/cqm ./internal/serve ./internal/batch ./internal/plancache ./internal/wal >> $(BENCH_JSON).txt || { rm -f $(BENCH_JSON).txt; exit 1; }
	$(GO) run ./cmd/benchjson -out $(BENCH_JSON) < $(BENCH_JSON).txt
	@rm -f $(BENCH_JSON).txt

# bench-diff re-runs the benchmarks and diffs them against the
# committed $(BASE) report: deterministic metrics (flips, moves,
# allocs/op, qubit counts) gate with a non-zero exit, wall-clock
# metrics are advisory. The delta table lands in bench_delta.md.
bench-diff:
	$(MAKE) bench-json BENCH_JSON=bench_current.json
	$(GO) run ./cmd/benchdiff -base $(BASE) -new bench_current.json -table bench_delta.md -tol $(TOL)

# perf-gate is the merge-blocking performance check: the TestPerfGate*
# unit gates (zero-alloc inner loops, exact deterministic flip counts,
# the exact backend's proven range and its refusal above it, the
# router's worker-time shares on a fake clock, the runtime simulator's
# per-process rather than per-task allocations)
# plus a benchdiff against the committed baseline. Everything it gates
# on is machine-independent, so it cannot flake on runner timing noise.
perf-gate:
	$(GO) test -run='^TestPerfGate' -count=1 ./internal/sa ./internal/tabu ./internal/cqm ./internal/plancache ./internal/wal ./internal/exact ./internal/route ./internal/chameleon
	$(MAKE) bench-diff

# fuzz-smoke gives every fuzz target a short randomized shake
# (FUZZTIME per corpus, ~10s default) — enough to catch shallow
# regressions in the parsers, the encode/decode round-trip, and the
# independent verifier on every CI run without a dedicated fuzz farm.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzPlan -fuzztime=$(FUZZTIME) ./internal/verify
	$(GO) test -run='^$$' -fuzz=FuzzSample -fuzztime=$(FUZZTIME) ./internal/verify
	$(GO) test -run='^$$' -fuzz=FuzzEncodeDecode -fuzztime=$(FUZZTIME) ./internal/qlrb
	$(GO) test -run='^$$' -fuzz=FuzzParseTraceLog -fuzztime=$(FUZZTIME) ./internal/chameleon
	$(GO) test -run='^$$' -fuzz=FuzzReadInput -fuzztime=$(FUZZTIME) ./internal/csvio
	$(GO) test -run='^$$' -fuzz=FuzzReadModel -fuzztime=$(FUZZTIME) ./internal/cqm
	$(GO) test -run='^$$' -fuzz=FuzzEvaluator -fuzztime=$(FUZZTIME) ./internal/cqm
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRequest -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzFingerprint -fuzztime=$(FUZZTIME) ./internal/plancache
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) ./internal/wal

# daemon-smoke exercises the serving daemon end to end from the
# outside: build qulrbd, start it, POST a real instance over HTTP, poll
# the job to completion, check /metrics is populated, SIGTERM, and
# require a clean drain and exit. See scripts/daemon_smoke.sh.
daemon-smoke:
	./scripts/daemon_smoke.sh

# fault-demo runs the degradation-curve experiment: the resilient cloud
# path (retry + breaker + classical fallback) swept over injected fault
# rates. See DESIGN.md's "Failure model".
fault-demo:
	$(GO) run ./cmd/experiments -exp faults -fast
