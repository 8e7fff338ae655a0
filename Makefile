GO ?= go

.PHONY: build test vet lint race verify bench baseline fuzz bench-smoke load-smoke digest clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs silodlint, the project's own static-analysis suite
# (wall clock, unit safety, float equality, lock discipline, error
# flow, map order, purity, input taint and enum exhaustiveness); exits
# non-zero on any finding not covered by lint.allow. See
# docs/static-analysis.md.
lint:
	$(GO) run ./cmd/silodlint -root .

race:
	$(GO) test -race ./...

# verify is the pre-merge gate: compile everything, vet, lint, and the
# full suite under the race detector, each test once. For a focused run
# pass -run to go test directly, e.g.
# `go test -race -run 'Fault|Chaos' ./internal/sim/ ./internal/testbed/`.
verify: build vet lint race

# bench runs the repository's benchmark (BENCHMARK.json): five
# workloads, end-to-end and per-layer metrics, correctness checks that
# exit 1. See docs/performance.md.
bench:
	$(GO) run ./bench -workload all

# baseline regenerates BENCH_baseline.json from the metrics counters.
baseline:
	$(GO) test . -run TestEmitBenchBaseline

# fuzz runs every fuzz target for 30 s (one target per go test run).
# Tier-1 runs only their committed corpora, <package>/testdata/fuzz/<Name>;
# ci_test.go fails when a Fuzz* function has no line here.
#   FuzzCheLRU: the Che LRU solver against the plain bisection it
#     replaced (internal/cache/che_ref_test.go), bit for bit.
#   FuzzLedger: the remote-IO ledger's exact total against a math/big
#     oracle; inputs are capped at 64 ops so execs stay fast.
#   FuzzParseAllow: lint.allow's parser on arbitrary input; every rule it
#     accepts names a known analyzer and a line >= 0.
#   FuzzScoreOrder: internal/keysort's integer-key sort against
#     slices.SortFunc from the same start order, for every comparator it
#     serves (the ranked orders, the water-fill's, the max-min probe's).
#   FuzzMaxFeasibleLambda: the max-min bisection (pinned scan order,
#     threshold search) against refLambdaProbe's plain halvings, bit for
#     bit on every round.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzCheLRU$$' -fuzztime 30s -parallel 2 ./internal/cache
	$(GO) test -run '^$$' -fuzz '^FuzzLedger$$' -fuzztime 30s -parallel 2 ./internal/remoteio
	$(GO) test -run '^$$' -fuzz '^FuzzParseAllow$$' -fuzztime 30s -parallel 2 ./internal/lint
	$(GO) test -run '^$$' -fuzz '^FuzzScoreOrder$$' -fuzztime 30s -parallel 2 ./internal/policy
	$(GO) test -run '^$$' -fuzz '^FuzzMaxFeasibleLambda$$' -fuzztime 30s -parallel 2 ./internal/policy

# bench-smoke runs the benchmark short, then every Benchmark* function
# once. The first exits 1 on any workload's correctness check or the
# bench/golden.json comparison (its numbers are not compared with
# anything); the second on a benchmark that panics or fails its own
# checks (~26 s).
bench-smoke:
	$(GO) run ./bench -workload all -seconds 5
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# load-smoke replays a seeded burst against silodload's self-hosted
# daemon and prints the shed/latency report (sustained jobs/sec, p99
# submit latency, per-tier shed fractions). It fails only when silodload
# does; the report's numbers are not checked.
load-smoke:
	$(GO) run ./cmd/silodload -seed 42 -jobs 400

# digest checks the push-stream contract docs/performance.md states:
# the reference hollow run must reproduce its digest (~50 s).
digest:
	$(GO) run ./cmd/silodhollow -nodes 10000 -jobs 1000000 -rounds 200 -seed 42 \
		| tee /dev/stderr | grep -q 'push digest: db6d5444ae01b354'

clean:
	$(GO) clean ./...
