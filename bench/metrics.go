package main

// metricDef is one row of the benchmark's metric table. The two tables
// below are the single source: BENCHMARK.json and bench/README.md are
// checked against them by the smoke test.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median the metric may worsen by
}

// endToEnd is what a user of either path sees. Every workload reports
// every one of them (the driver's contract), so each has one definition
// per workload family — see README.md for the table.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"turnaround_p50_ms", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.15},
}

// simArmNames are the nine sim.arm_s.* suffixes: sim-maxmin's one arm
// then sim-greedy's eight, in arm-index order.
var simArmNames = []string{
	"gavel-silod",
	"fifo-silod", "fifo-alluxio", "fifo-coordl", "fifo-quiver",
	"sjf-silod", "sjf-alluxio", "sjf-coordl", "sjf-quiver",
}

// perLayer is the traced run's output. A layer that does no work on a
// workload reports 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	l := func(name, unit, better string) metricDef { return metricDef{Name: name, Unit: unit, Better: better} }
	defs := []metricDef{
		l("workload.generate_s", "s", "lower"),
		l("policy.build_us", "us", "lower"),
		l("sim.wall_s", "s", "lower"),
		l("sim.avg_jct_min", "min", "lower"),
		l("sim.makespan_min", "min", "lower"),
		l("sim.run_self_s", "s", "lower"),
		l("sim.events", "count", "lower"),
		l("sim.job_views", "count", "lower"),
		l("sim.reschedules", "count", "lower"),
		l("sim.us_per_event", "us", "lower"),
		l("policy.assign_calls", "count", "lower"),
		l("policy.assign_total_s", "s", "lower"),
		l("policy.assign_p50_us", "us", "lower"),
		l("policy.assign_p95_us", "us", "lower"),
		l("policy.assign_jobs_p50", "count", "lower"),
		l("core.memo_hit_ratio", "ratio", "higher"),
	}
	for _, arm := range simArmNames {
		defs = append(defs, l("sim.arm_s."+arm, "s", "lower"))
	}
	return append(defs,
		l("runner.workers", "count", "higher"),
		l("runner.parallel_efficiency", "ratio", "higher"),
		l("policy.maxmin_storage_cold_us", "us", "lower"),
		l("policy.maxmin_storage_warm_us", "us", "lower"),
		l("policy.maxmin_storage_allocs", "count", "lower"),
		l("core.validate_us", "us", "lower"),
		l("core.validate_allocs", "count", "lower"),
		l("core.sort_jobs_us", "us", "lower"),
		l("estimator.perf_ns", "ns", "lower"),
		l("eventq.schedule_step_ns", "ns", "lower"),
		l("eventq.schedule_step_allocs", "count", "lower"),
		l("controlplane.heartbeat_ns", "ns", "lower"),
		l("controlplane.submit_us", "us", "lower"),
		l("controlplane.progress_ns", "ns", "lower"),
		l("controlplane.ingest_ops_per_s", "1/s", "higher"),
		l("controlplane.round_p50_ms", "ms", "lower"),
		l("controlplane.round_mean_ms", "ms", "lower"),
		l("controlplane.round_p95_ms", "ms", "lower"),
		l("controlplane.round_max_ms", "ms", "lower"),
		l("controlplane.round_self_ms", "ms", "lower"),
		l("controlplane.active_jobs_p50", "count", "lower"),
		l("controlplane.round_mallocs", "count", "lower"),
		l("dataplane.push_ms_per_round", "ms", "lower"),
		l("dataplane.pushes_per_round", "count", "lower"),
		l("dataplane.changed_push_ratio", "ratio", "higher"),
		l("datamgr.push_ms_per_round", "ms", "lower"),
		l("datamgr.attach_us", "us", "lower"),
		l("datamgr.pushes_per_round", "count", "lower"),
		l("remoteio.ledger_set_us", "us", "lower"),
		l("remoteio.ledger_set_allocs", "count", "lower"),
		l("controlplane.http_submit_p50_ms", "ms", "lower"),
		l("controlplane.http_submit_p95_ms", "ms", "lower"),
		l("loadgen.lateness_p95_ms", "ms", "lower"),
		l("admission.queue_wait_p50_ms", "ms", "lower"),
		l("admission.depth_max", "count", "lower"),
		l("admission.shed_fraction.critical", "ratio", "lower"),
		l("admission.shed_fraction.standard", "ratio", "lower"),
		l("admission.shed_fraction.sheddable", "ratio", "lower"),
		l("serve.admit_p50_ms.r50", "ms", "lower"),
		l("serve.admit_p50_ms.r100", "ms", "lower"),
		l("serve.admit_p50_ms.r200", "ms", "lower"),
		l("serve.admit_p95_ms.r50", "ms", "lower"),
		l("serve.admit_p95_ms.r100", "ms", "lower"),
		l("serve.admit_p95_ms.r200", "ms", "lower"),
		l("serve.admit_p99_ms.r200", "ms", "lower"),
		l("serve.max_rate_ok_per_s", "1/s", "higher"),
		l("controlplane.round_busy_frac.r200", "ratio", "lower"),
		l("controlplane.round_overruns", "count", "lower"),
		l("bench.host_speed", "ratio", "higher"),
		l("bench.trace_overhead_frac", "ratio", "lower"),
		l("repo.nontest_go_loc", "count", "lower"),
	)
}

// sample is one reported metric: the value plus how many observations
// stand behind it (1 for counts and single spans).
type sample struct {
	Value float64
	N     int
}

// samples collects a run's metrics by name.
type samples map[string]sample

func (s samples) set(name string, v float64, n int) { s[name] = sample{Value: v, N: n} }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
