// Package experiments implements one reproduction per table and figure
// of the paper's evaluation (§7). Every experiment is deterministic
// given its options, builds its own workload, runs the appropriate
// engine(s), and renders the same rows or series the paper reports.
// DESIGN.md carries the experiment index; EXPERIMENTS.md records
// paper-versus-measured numbers.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/unit"
	"repro/internal/workload"
)

// Options control experiment scale. The zero value means "default
// reproduction scale" — large enough to show every paper trend, small
// enough to run in seconds to a few minutes.
type Options struct {
	Seed int64
	// Jobs overrides the trace size for cluster experiments (0 = each
	// experiment's default).
	Jobs int
	// Quick shrinks the cluster experiments further for unit tests.
	Quick bool
	// Sequential runs experiment arms inline in index order instead of
	// fanning them across the worker pool (silodsim -parallel=1). The
	// parallel path is tested byte-identical to this one; Sequential
	// exists for debugging and as the reference order.
	Sequential bool
	// Workers bounds the arm worker pool (0 = GOMAXPROCS).
	Workers int
	// FullResolve switches off the engines' three fast paths (solve
	// memo, fluid rate memo, Che fixed-point early exit). Outputs are
	// byte-identical either way — the identity tests diff the two modes
	// — so this exists for those gates and for timing the reference.
	FullResolve bool
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

func (o Options) runnerOpts() runner.Options {
	return runner.Options{Seed: o.seed(), Workers: o.Workers, Sequential: o.Sequential}
}

// mapArms fans n experiment arms across the deterministic worker pool
// (or runs them inline under Options.Sequential). Arms receive their
// index only: every experiment in this package derives its randomness
// from Options.Seed so that published golden numbers (EXPERIMENTS.md)
// are independent of how arms are scheduled; arms that need a private
// stream should use runner.Map directly and draw from Arm.Seed.
func mapArms[T any](o Options, n int, run func(i int) (T, error)) ([]T, error) {
	return runner.Map(o.runnerOpts(), n, func(a runner.Arm) (T, error) {
		return run(a.Index)
	})
}

// Cluster presets follow Table 5: the remote IO limit scales down from
// the production cluster with size, and cache provisioning follows the
// 8-V100 micro-benchmark's 250 GB per GPU.
func clusterPreset(gpus int) core.Cluster {
	var egress unit.Bandwidth
	switch {
	case gpus <= 8:
		egress = unit.Gbps(1.6) // 200 MB/s
	case gpus <= 96:
		egress = unit.Gbps(8) // 1 GB/s
	default:
		egress = unit.Gbps(32) // 4 GB/s
	}
	return core.Cluster{
		GPUs:     gpus,
		Cache:    unit.GiB(250) * unit.Bytes(gpus),
		RemoteIO: egress,
	}
}

// runOne builds the policy for (scheduler, cache system) and runs the
// fluid simulator over the trace. Options carries the seed and the
// FullResolve reference-mode flag (identity tests diff the two modes).
func runOne(o Options, k policy.SchedulerKind, cs policy.CacheSystem, cl core.Cluster,
	jobs []workload.JobSpec, mutate func(*sim.Config)) (*sim.Result, error) {
	seed := o.seed()
	pol, err := policy.Build(k, cs, seed)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		Cluster:     cl,
		Policy:      pol,
		System:      cs,
		Engine:      sim.Fluid,
		Seed:        seed,
		FullResolve: o.FullResolve,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := sim.Run(cfg, jobs)
	if err != nil {
		return nil, fmt.Errorf("%v/%v: %w", k, cs, err)
	}
	return res, nil
}

// SystemResults maps cache systems to run results for one scheduler.
type SystemResults map[policy.CacheSystem]*sim.Result

// runSystems executes the trace under every cache system with the given
// scheduler, one parallel arm per system.
func runSystems(o Options, k policy.SchedulerKind, cl core.Cluster, jobs []workload.JobSpec,
	mutate func(*sim.Config)) (SystemResults, error) {
	systems := policy.AllCacheSystems()
	results, err := mapArms(o, len(systems), func(i int) (*sim.Result, error) {
		return runOne(o, k, systems[i], cl, jobs, mutate)
	})
	if err != nil {
		return nil, err
	}
	out := make(SystemResults, len(systems))
	for i, cs := range systems {
		out[cs] = results[i]
	}
	return out, nil
}

// traceFor generates the standard trace for a cluster experiment: load
// factor ~1.3-1.4 over the window so the queue builds up as in the
// paper's long traces.
func traceFor(o Options, gpus, defaultJobs int, window unit.Duration) ([]workload.JobSpec, error) {
	n := defaultJobs
	if o.Jobs > 0 {
		n = o.Jobs
	}
	if o.Quick {
		// Preserve the offered load when shrinking: fewer jobs over a
		// proportionally shorter window.
		shrunk := max(10, n/10)
		window = unit.Duration(float64(window) * float64(shrunk) / float64(n))
		n = shrunk
	}
	cfg := workload.DefaultTraceConfig(o.seed(), n, window)
	return workload.Generate(cfg)
}

// seriesMeanUpTo is the time-weighted mean of s over [0, tMax].
func seriesMeanUpTo(s *stats.Series, tMax float64) float64 {
	if s == nil || s.Len() == 0 {
		return 0
	}
	var tw stats.TimeWeighted
	for i := 0; i < s.Len(); i++ {
		t, v := s.At(i)
		if t > tMax {
			break
		}
		tw.Observe(t, v)
	}
	return tw.Finish(tMax)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
