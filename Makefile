GO ?= go

.PHONY: build test vet lint race chaos tenants serve verify bench baseline perf clean

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

# chaos runs the seeded fault-injection suite under the race detector:
# deterministic chaos replay on both simulator engines, concurrent
# fault application against the live testbed, and the -faults schema
# golden. See docs/fault-injection.md.
chaos:
	$(GO) test -race ./internal/faults/
	$(GO) test -race -run 'Fault|Chaos|Loss|Crash' ./internal/sim/ ./internal/testbed/ ./cmd/silodsim/

# tenants runs the seeded multi-tenant chaos suite under the race
# detector: registry/admission unit tests, quota-clamp policy tests,
# the control-plane 429 path, and the SLO-protection + same-seed
# byte-identity acceptance tests on both engines. See
# docs/multi-tenancy.md.
tenants:
	$(GO) test -race ./internal/tenant/
	$(GO) test -race -run 'Tenant' ./internal/policy/ ./internal/sim/ ./internal/controlplane/

# serve runs the online-serving acceptance suite under the race
# detector: the bounded admission queue and load-generator unit tests,
# the decoupled round loop + drain + circuit-breaker + retry tests,
# the heartbeat-revival race, the silodd graceful-SIGTERM regression,
# and the silodload self-host smoke. See docs/serving.md.
serve:
	$(GO) test -race ./internal/admission/ ./internal/loadgen/
	$(GO) test -race -run 'Serve|Overload|Drain|Breaker|Retry|Admission|Enqueue|HeartbeatRevival' ./internal/controlplane/
	$(GO) test -race ./cmd/silodd/ ./cmd/silodload/

# verify is the pre-merge gate: compile everything, vet, lint, and the
# full suite under the race detector. race runs `go test -race ./...`,
# which already contains every test chaos, tenants and serve select, so
# those three stay as targets for focused runs and verify runs each
# test once.
verify: build vet lint race

# bench runs the repository's benchmark (BENCHMARK.json): five
# workloads, end-to-end and per-layer metrics, correctness checks that
# exit 1. See docs/performance.md.
bench:
	$(GO) run ./bench -workload all

# baseline regenerates BENCH_baseline.json from the metrics counters.
baseline:
	$(GO) test . -run TestEmitBenchBaseline

# perf is the worker-pool and incremental-scheduling gate: the runner
# stress test under the race detector, the parallel-vs-sequential and
# incremental-vs-full-resolve byte-identity tests at the policy, engine,
# experiment and CLI layers, and the hollow-node control-plane smoke.
# See docs/performance.md.
perf:
	$(GO) test -race -run 'TestPoolStress|TestMap|TestForEach|TestArmSeed' ./internal/runner/
	$(GO) test -race -run 'TestMaxMinSolverWarm|TestIgnoredFields' ./internal/policy/
	$(GO) test -race -run 'TestCheLRUWarm' ./internal/cache/
	$(GO) test -race -run 'TestIncremental' ./internal/sim/
	$(GO) test -race -run 'TestParallelArtifactsByteIdentical|TestIncrementalArtifactsByteIdentical' ./internal/experiments/
	$(GO) test -race -run 'TestParallelFlagByteIdentical|TestDeterministic|TestFullResolve' ./cmd/silodsim/
	$(GO) test -race ./internal/hollow/ ./cmd/silodhollow/

clean:
	$(GO) clean ./...
