package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/unit"
	"repro/internal/workload"
)

// TestEngineMetrics runs a small trace through both engines with a
// registry and timeline attached and checks the instrumentation agrees
// with the Result: every job submits, schedules, and completes; the JCT
// histogram matches the per-job stats; hit+miss bytes are populated;
// the remote IO capacity is respected by the utilization gauge.
func TestEngineMetrics(t *testing.T) {
	jobs, err := workload.Generate(workload.DefaultTraceConfig(5, 30, 2*unit.Hour))
	if err != nil {
		t.Fatal(err)
	}
	cl := core.Cluster{GPUs: 16, Cache: unit.TiB(1), RemoteIO: unit.MBpsOf(400)}
	for _, eng := range []Engine{Fluid, Batch} {
		reg := metrics.NewRegistry("sim")
		tl := metrics.NewTimeline(0)
		cfg := Config{Cluster: cl, Policy: siloFIFO(t), System: policy.SiloD,
			Engine: eng, Seed: 3, Metrics: reg, Timeline: tl}
		res := runSim(t, cfg, jobs)

		snap := reg.Snapshot()
		if got := snap.CounterValue("silod_sim_job_completions_total", nil); got != float64(len(jobs)) {
			t.Errorf("%v: completions = %v, want %d", eng, got, len(jobs))
		}
		ms, ok := snap.Get("silod_sim_jct_minutes", nil)
		if !ok {
			t.Fatalf("%v: no JCT histogram", eng)
		}
		if ms.Count != int64(len(jobs)) {
			t.Errorf("%v: JCT count = %d, want %d", eng, ms.Count, len(jobs))
		}
		var wantSum float64
		for _, j := range res.Jobs {
			wantSum += j.JCT().Minutes()
		}
		if math.Abs(ms.Sum-wantSum) > 1e-6*math.Max(1, wantSum) {
			t.Errorf("%v: JCT sum = %v, want %v", eng, ms.Sum, wantSum)
		}
		hit := snap.CounterValue("silod_sim_cache_hit_bytes_total", nil)
		miss := snap.CounterValue("silod_sim_cache_miss_bytes_total", nil)
		if hit <= 0 || miss <= 0 {
			t.Errorf("%v: hit/miss bytes = %v/%v, want both > 0", eng, hit, miss)
		}
		if got := snap.CounterValue("silod_sim_reschedules_total", nil); got <= 0 {
			t.Errorf("%v: no reschedules recorded", eng)
		}

		byKind := map[metrics.EventKind][]metrics.Event{}
		for _, e := range tl.Events() {
			byKind[e.Kind] = append(byKind[e.Kind], e)
		}
		if n := len(byKind[metrics.EventSubmit]); n != len(jobs) {
			t.Errorf("%v: %d submit events, want %d", eng, n, len(jobs))
		}
		if n := len(byKind[metrics.EventComplete]); n != len(jobs) {
			t.Errorf("%v: %d complete events, want %d", eng, n, len(jobs))
		}
		if n := len(byKind[metrics.EventSchedule]); n < len(jobs) {
			t.Errorf("%v: %d schedule events, want >= %d", eng, n, len(jobs))
		}
		// Completion timestamps must not precede submission.
		sub := make(map[string]float64)
		for _, e := range byKind[metrics.EventSubmit] {
			sub[e.Job] = e.T
		}
		for _, e := range byKind[metrics.EventComplete] {
			if e.T < sub[e.Job] {
				t.Errorf("%v: job %s completes at %v before submit %v", eng, e.Job, e.T, sub[e.Job])
			}
		}
	}
}

// TestBatchEnginePoolCounters checks that the batch engine's real cache
// pool reports block-level counters under the cache-system label.
func TestBatchEnginePoolCounters(t *testing.T) {
	jobs, err := workload.Generate(workload.DefaultTraceConfig(3, 30, unit.Hour))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry("sim")
	cfg := Config{
		Cluster: core.Cluster{GPUs: 16, Cache: unit.TiB(1), RemoteIO: unit.MBpsOf(400)},
		Policy:  siloFIFO(t), System: policy.SiloD, Engine: Batch, Seed: 3, Metrics: reg,
	}
	runSim(t, cfg, jobs)
	snap := reg.Snapshot()
	l := map[string]string{"policy": policy.SiloD.String()}
	if got := snap.CounterValue("silod_cache_misses_total", l); got <= 0 {
		t.Errorf("pool misses = %v, want > 0", got)
	}
	if got := snap.CounterValue("silod_cache_admissions_total", l); got <= 0 {
		t.Errorf("pool admissions = %v, want > 0", got)
	}
}

// TestMetricsOffIsIdentical: attaching instrumentation must not perturb
// the simulation (determinism guard for the nil-handle design).
func TestMetricsOffIsIdentical(t *testing.T) {
	jobs, err := workload.Generate(workload.DefaultTraceConfig(5, 30, 2*unit.Hour))
	if err != nil {
		t.Fatal(err)
	}
	cl := core.Cluster{GPUs: 16, Cache: unit.TiB(1), RemoteIO: unit.MBpsOf(400)}
	for _, eng := range []Engine{Fluid, Batch} {
		plain := runSim(t, Config{Cluster: cl, Policy: siloFIFO(t), System: policy.SiloD, Engine: eng, Seed: 3}, jobs)
		inst := runSim(t, Config{Cluster: cl, Policy: siloFIFO(t), System: policy.SiloD, Engine: eng, Seed: 3,
			Metrics: metrics.NewRegistry("sim"), Timeline: metrics.NewTimeline(0)}, jobs)
		if len(plain.Jobs) != len(inst.Jobs) {
			t.Fatalf("%v: job counts differ", eng)
		}
		for i := range plain.Jobs {
			if plain.Jobs[i] != inst.Jobs[i] {
				t.Errorf("%v: job %d differs with metrics on: %+v vs %+v",
					eng, i, plain.Jobs[i], inst.Jobs[i])
			}
		}
	}
}
