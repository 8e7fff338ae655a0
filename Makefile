GO ?= go

.PHONY: build test vet lint race verify bench baseline clean

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

clean:
	$(GO) clean ./...
