package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/stats"
)

// limit bounds a measured phase: by wall time (the plain run) or by an
// op count (the traced replay of an untraced phase, which must do the
// same work for its outputs to be comparable).
type limit struct {
	seconds float64
	ops     int
}

func (l limit) more(done int, began time.Time) bool {
	if l.ops > 0 {
		return done < l.ops
	}
	return time.Since(began).Seconds() < l.seconds
}

// phase is what one measured run of a workload produced.
type phase struct {
	setupS     float64
	ops        []float64 // seconds per unit operation (pass, Schedule, RunRound)
	turnaround []float64 // seconds from handing work over to seeing its result
	allocMB    float64   // runtime.MemStats.TotalAlloc over the measured phase
	allocOps   int       // what alloc_mb_per_op divides by
	speed      float64   // host speed during the run (calibrator); 1 where times are reported raw
	workScale  float64   // reference work / this seed's work (sim-*); 1 elsewhere

	attempted, failed int
	failures          []string // failed correctness checks; any entry fails the run

	// fingerprint is every output that must not depend on tracing:
	// simulated statistics or the push digest.
	fingerprint string
	simulated   map[string]armOutcome // sim-*: per arm, for the golden file

	layer         samples     // layer metrics the workload counted itself
	solveAttempts float64     // rounds or reschedules per op: memo_hit_ratio's denominator
	assignJobs    []float64   // len(views) of every traced Assign
	probe         assignInput // largest traced Assign input
	peakActive    int         // serve-http: ledger probe size
	tracedOps     int         // ops the spans cover when that is more than len(ops): serve-http traces every round, measures the top step's
}

func newPhase() *phase { return &phase{layer: samples{}, speed: 1, workScale: 1} }

func (p *phase) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

func totalAllocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / 1e6
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// workloadDef names one workload and how to run it at full shape.
type workloadDef struct {
	name string
	why  string
	run  func(seed int64, lim limit, tr *tracer) (*phase, error)
	// openLoop workloads follow a schedule laid out over the whole of
	// -seconds; halving it for a traced run would move the operating
	// point, so each of the traced run's two phases gets the full length.
	openLoop bool
}

var workloads = []workloadDef{
	{
		name: "sim-maxmin",
		why:  "Figure 12 trace, Gavel x SiloD on the fluid engine: MaxMinSolver does most of the work, so a solver change shows here and nowhere else",
		run: func(seed int64, lim limit, tr *tracer) (*phase, error) {
			return runSim("sim-maxmin", fullSim(maxminArms(), maxminRefViews), seed, lim, tr)
		},
	},
	{
		name: "sim-greedy",
		why:  "same trace, {FIFO,SJF} x 4 cache systems through runner.Map: engine, eventq, CheLRU and the solve-skip memo work, MaxMinSolver does none",
		run: func(seed int64, lim limit, tr *tracer) (*phase, error) {
			return runSim("sim-greedy", fullSim(greedyArms(), greedyRefViews), seed, lim, tr)
		},
	},
	{
		name: "cp-churn",
		why:  "real SchedulerServer at 4000 hollow nodes with 2000 arrivals and completions per round: the job set changes every round, so no memo can hit",
		run:  func(seed int64, lim limit, tr *tracer) (*phase, error) { return runCP(churnShape(), seed, lim, tr) },
	},
	{
		name: "cp-steady",
		why:  "same cluster, 24000 resident jobs, only heartbeats and progress: nothing the policy reads changes between rounds, the memo's best case",
		run:  func(seed int64, lim limit, tr *tracer) (*phase, error) { return runCP(steadyShape(), seed, lim, tr) },
	},
	{
		name:     "serve-http",
		why:      "silodd's wiring over loopback HTTP, open loop at 50/100/200 jobs/s: the only workload with datamgr, remoteio.Ledger, admission and HTTP decode behind the round",
		run:      func(seed int64, lim limit, tr *tracer) (*phase, error) { return runServe(fullServe(), seed, lim, tr) },
		openLoop: true,
	},
}

// endToEndOf reduces an untraced phase to the end-to-end metrics.
// Times are scaled to the reference work (sim-*) and to an undisturbed
// reference host (sim-*, cp-*); serve-http reports them raw.
func endToEndOf(ph *phase) samples {
	out := samples{}
	scale := ph.workScale * ph.speed
	out.set("setup_s", ph.setupS*scale, 1)
	out.set("op_p50_ms", stats.Median(ph.ops)*scale*1e3, len(ph.ops))
	out.set("ops_per_s", ratio(float64(len(ph.ops)), stats.Sum(ph.ops)*scale), len(ph.ops))
	out.set("turnaround_p50_ms", stats.Median(ph.turnaround)*scale*1e3, len(ph.turnaround))
	out.set("alloc_mb_per_op", ratio(ph.allocMB, float64(ph.allocOps))*ph.workScale, ph.allocOps)
	return out
}

// perLayerOf reduces a traced phase, its spans and the untraced phase
// it replayed to the per-layer metrics. Per-op figures divide by the
// measured ops (passes or rounds).
func perLayerOf(ph, plain *phase, spans []span) samples {
	out := samples{}
	for _, d := range perLayer {
		out.set(d.Name, 0, 0)
	}
	for name, s := range ph.layer {
		out[name] = s
	}
	ops := float64(max(ph.tracedOps, len(ph.ops)))
	assign := byName(spans, "policy.assign")
	build := byName(spans, "policy.build")
	out.set("policy.build_us", stats.Median(build)*1e6, len(build))
	out.set("policy.assign_calls", ratio(float64(len(assign)), ops), len(ph.ops))
	out.set("policy.assign_total_s", ratio(stats.Sum(assign), ops), len(ph.ops))
	out.set("policy.assign_p50_us", stats.Median(assign)*1e6, len(assign))
	out.set("policy.assign_p95_us", stats.Percentile(assign, 95)*1e6, len(assign))
	out.set("policy.assign_jobs_p50", stats.Median(ph.assignJobs), len(ph.assignJobs))
	if attempts := ops * ph.solveAttempts; attempts > 0 {
		out.set("core.memo_hit_ratio", 1-float64(len(assign))/attempts, len(ph.ops))
	}
	out.set("workload.generate_s", stats.Sum(byName(spans, "workload.generate")), 1)
	out.set("bench.host_speed", ph.speed, 1)
	out.set("bench.trace_overhead_frac", ratio(stats.Median(ph.ops)-stats.Median(plain.ops), stats.Median(plain.ops)), len(ph.ops))
	return out
}
