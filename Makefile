GO ?= go

.PHONY: build test vet lint lint-why race verify bench baseline clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs silodlint, the project's own static-analysis suite
# (determinism, unit-safety, metric-naming invariants, whole-program
# determinism closure and input taint); exits non-zero on any finding
# not covered by lint.allow. See docs/static-analysis.md.
lint:
	$(GO) run ./cmd/silodlint -root .

# lint-why demonstrates the -why trace on the known-bad fixture: the
# seeded detclose finding prints its root-to-witness call path. The
# grep is the assertion — the smoke fails unless a full path (root,
# hop, clock witness) comes back.
lint-why:
	$(GO) run ./cmd/silodlint -root cmd/silodlint/testdata/badmod -why | grep -A4 "detclose" | grep "time.Now"

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

clean:
	$(GO) clean ./...
