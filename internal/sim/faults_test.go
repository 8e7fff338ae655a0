package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/unit"
	"repro/internal/workload"
)

// runFaulted executes the micro-benchmark workload under a fault
// schedule with full instrumentation.
func runFaulted(t testing.TB, eng Engine, cl core.Cluster, jobs []workload.JobSpec, sched *faults.Schedule) (*Result, *metrics.Registry) {
	t.Helper()
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 7)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry("test")
	res, err := Run(Config{
		Cluster:  cl,
		Policy:   pol,
		System:   policy.SiloD,
		Engine:   eng,
		Seed:     7,
		Faults:   sched,
		Metrics:  reg,
		Timeline: metrics.NewTimeline(0),
	}, jobs)
	if err != nil {
		t.Fatalf("%v: %v", eng, err)
	}
	return res, reg
}

// cleanMicroMemo caches the fault-free SiloD baseline per engine: two
// chaos tests compare against it, and a batch-engine micro run is
// expensive under -race. Tests in this package do not run in parallel.
var cleanMicroMemo = map[Engine]*Result{}

func cleanMicro(t *testing.T, eng Engine) *Result {
	t.Helper()
	if r, ok := cleanMicroMemo[eng]; ok {
		return r
	}
	r := runMicro(t, policy.SiloD, eng)
	cleanMicroMemo[eng] = r
	return r
}

// requireAllJobs asserts no job was lost to a fault: every spec shows
// up in the result exactly once, finished.
func requireAllJobs(t *testing.T, res *Result, specs []workload.JobSpec) {
	t.Helper()
	seen := make(map[string]bool, len(res.Jobs))
	for _, j := range res.Jobs {
		if j.Finish < j.Start || j.Start < j.Submit {
			t.Errorf("job %s has inconsistent times: %+v", j.ID, j)
		}
		seen[j.ID] = true
	}
	for _, s := range specs {
		if !seen[s.ID] {
			t.Errorf("job %s lost during chaos run", s.ID)
		}
	}
	if len(res.Jobs) != len(specs) {
		t.Errorf("finished %d jobs, want %d", len(res.Jobs), len(specs))
	}
}

// TestNodeLossFluidBatchAgreement: losing half the GPUs mid-run and
// restoring them later must play out equivalently on both engines —
// all gang jobs preempted, requeued, and finished — with the engines
// agreeing on the cost of the outage.
func TestNodeLossFluidBatchAgreement(t *testing.T) {
	specs := microBenchJobs(t)
	cl := microCluster()
	sched := &faults.Schedule{Events: []faults.Event{
		{At: unit.Time(10 * 3600), Kind: faults.KindGPULoss, GPUs: 4},
		{At: unit.Time(30 * 3600), Kind: faults.KindGPURestore, GPUs: 4},
	}}
	makespans := map[Engine]float64{}
	for _, eng := range []Engine{Fluid, Batch} {
		clean := cleanMicro(t, eng)
		res, reg := runFaulted(t, eng, cl, specs, sched)
		requireAllJobs(t, res, specs)
		if res.Makespan <= clean.Makespan {
			t.Errorf("%v: makespan %v under node loss not longer than clean %v",
				eng, res.Makespan, clean.Makespan)
		}
		snap := reg.Snapshot()
		if v := snap.CounterValue("silod_faults_injected_total", map[string]string{"kind": "gpu_loss"}); v != 1 {
			t.Errorf("%v: gpu_loss injected counter = %v, want 1", eng, v)
		}
		if v := snap.CounterValue("silod_faults_recoveries_total", nil); v != 1 {
			t.Errorf("%v: recoveries = %v, want 1", eng, v)
		}
		if v := snap.CounterValue("silod_faults_preemptions_total", nil); v < 1 {
			t.Errorf("%v: no fault preemptions recorded under node loss", eng)
		}
		makespans[eng] = res.Makespan.Minutes()
		t.Logf("%v: faulted makespan %.0f min (clean %.0f)", eng, res.Makespan.Minutes(), clean.Makespan.Minutes())
	}
	if re := relErr(makespans[Fluid], makespans[Batch]); re > 0.35 {
		t.Errorf("engines disagree on node-loss makespan: fluid %.0f vs batch %.0f min (%.0f%%)",
			makespans[Fluid], makespans[Batch], 100*re)
	}
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

// TestCacheLossDegradesToRemoteBoundAndRecovers is the acceptance
// scenario: a solo cached job loses the whole cache mid-run, its
// throughput degrades to the estimator's remote-IO bound (b at zero
// cache), and after restoration it re-warms and climbs back above the
// bound. The job is never lost.
func TestCacheLossDegradesToRemoteBoundAndRecovers(t *testing.T) {
	specs := microBenchJobs(t)[:1] // rn50-a: 1 GPU, 1.3 TiB dataset, 13 epochs
	remote := unit.MBpsOf(50)
	cl := core.Cluster{GPUs: 2, Cache: unit.TiB(2), RemoteIO: remote}
	lossAt, restoreAt := unit.Time(15*3600), unit.Time(25*3600)
	sched := &faults.Schedule{Events: []faults.Event{
		{At: lossAt, Kind: faults.KindCacheLoss, Cache: cl.Cache},
		{At: restoreAt, Kind: faults.KindCacheRestore, Cache: cl.Cache},
	}}
	for _, eng := range []Engine{Fluid, Batch} {
		res, reg := runFaulted(t, eng, cl, specs, sched)
		requireAllJobs(t, res, specs)
		series := res.Timelines["throughput"]
		if series == nil || series.Len() == 0 {
			t.Fatalf("%v: no throughput timeline", eng)
		}
		bound := remote.MBpsValue()
		lossMin, restoreMin := lossAt.Minutes(), restoreAt.Minutes()
		var degradedMax, afterMax float64
		for i := 0; i < series.Len(); i++ {
			ts, v := series.At(i) // series times are in minutes
			switch {
			case ts > lossMin+30 && ts <= restoreMin:
				if v > degradedMax {
					degradedMax = v
				}
			case ts > restoreMin+10*60:
				if v > afterMax {
					afterMax = v
				}
			}
		}
		if degradedMax > bound*1.1+1 {
			t.Errorf("%v: throughput %.1f MB/s during total cache loss exceeds remote bound %.0f",
				eng, degradedMax, bound)
		}
		if afterMax <= bound*1.2 {
			t.Errorf("%v: throughput never recovered past the remote bound after restore (max %.1f, bound %.0f)",
				eng, afterMax, bound)
		}
		snap := reg.Snapshot()
		if v, ok := snap.Get("silod_faults_time_degraded_seconds", nil); !ok ||
			*v.Value != float64(restoreAt.Sub(lossAt).Seconds()) {
			t.Errorf("%v: time degraded = %+v, want %v s", eng, v, restoreAt.Sub(lossAt).Seconds())
		}
		t.Logf("%v: degradedMax=%.1f afterMax=%.1f makespan=%.0f min",
			eng, degradedMax, afterMax, res.Makespan.Minutes())
	}
}

// TestJobCrashRequeuesWithRollback: a crashed job loses its current
// epoch's progress and re-enters the queue, finishing later than in a
// clean run but never lost.
func TestJobCrashRequeues(t *testing.T) {
	specs := microBenchJobs(t)
	cl := microCluster()
	sched := &faults.Schedule{Events: []faults.Event{
		{At: unit.Time(5 * 3600), Kind: faults.KindJobCrash, Job: "rn50-a"},
	}}
	for _, eng := range []Engine{Fluid, Batch} {
		clean := cleanMicro(t, eng)
		res, reg := runFaulted(t, eng, cl, specs, sched)
		requireAllJobs(t, res, specs)
		var cleanFin, crashFin unit.Time
		for _, j := range clean.Jobs {
			if j.ID == "rn50-a" {
				cleanFin = j.Finish
			}
		}
		for _, j := range res.Jobs {
			if j.ID == "rn50-a" {
				crashFin = j.Finish
			}
		}
		if crashFin <= cleanFin {
			t.Errorf("%v: crashed job finished at %v, not later than clean %v (no rollback?)",
				eng, crashFin, cleanFin)
		}
		snap := reg.Snapshot()
		if v := snap.CounterValue("silod_faults_injected_total", map[string]string{"kind": "job_crash"}); v != 1 {
			t.Errorf("%v: job_crash injected = %v, want 1", eng, v)
		}
		if v := snap.CounterValue("silod_faults_preemptions_total", nil); v < 1 {
			t.Errorf("%v: crash recorded no preemption", eng)
		}
	}
}

// TestChaosDeterminism: the same seed and fault schedule must produce
// byte-identical metrics snapshots and identical job outcomes, run to
// run, on both engines.
func TestChaosDeterminism(t *testing.T) {
	specs := microBenchJobs(t)
	cl := microCluster()
	sched := &faults.Schedule{Events: []faults.Event{
		{At: unit.Time(5 * 3600), Kind: faults.KindGPULoss, GPUs: 2},
		{At: unit.Time(8 * 3600), Kind: faults.KindCacheLoss, Cache: unit.TiB(1)},
		{At: unit.Time(10 * 3600), Kind: faults.KindIOLoss, RemoteIO: unit.MBpsOf(100)},
		{At: unit.Time(12 * 3600), Kind: faults.KindJobCrash, Job: "bert"},
		{At: unit.Time(20 * 3600), Kind: faults.KindGPURestore, GPUs: 2},
		{At: unit.Time(20 * 3600), Kind: faults.KindCacheRestore, Cache: unit.TiB(1)},
		{At: unit.Time(20 * 3600), Kind: faults.KindIORestore, RemoteIO: unit.MBpsOf(100)},
	}}
	for _, eng := range []Engine{Fluid, Batch} {
		var snaps [][]byte
		var makespans []unit.Duration
		for i := 0; i < 2; i++ {
			res, reg := runFaulted(t, eng, cl, specs, sched)
			requireAllJobs(t, res, specs)
			blob, err := json.Marshal(reg.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, blob)
			makespans = append(makespans, res.Makespan)
		}
		if !bytes.Equal(snaps[0], snaps[1]) {
			t.Errorf("%v: same seed+schedule produced different metrics snapshots", eng)
		}
		if makespans[0] != makespans[1] {
			t.Errorf("%v: makespans differ: %v vs %v", eng, makespans[0], makespans[1])
		}
	}
}

// TestRoundRunningListMatchesScan: the fluid loop integrates over the
// running list reschedule builds once per round, not a fresh scan per
// step. At every step that list must be the one runningJobs() scans
// for, including the rounds after the fault schedule's crash and GPU
// loss and restore, which change who runs between rounds. The trace is
// silodtrace's 24-job, 4-hour default; the schedule is the one
// docs/fault-injection.md shows. On 8 GPUs the GPU loss preempts.
func TestRoundRunningListMatchesScan(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "faults", "testdata", "schedule.json"))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := workload.Generate(workload.DefaultTraceConfig(42, 24, 4*unit.Hour))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind policy.SchedulerKind
		cs   policy.CacheSystem
	}{{policy.FIFOKind, policy.SiloD}, {policy.SJFKind, policy.Alluxio}, {policy.GavelKind, policy.SiloD}} {
		pol, err := policy.Build(tc.kind, tc.cs, 7)
		if err != nil {
			t.Fatal(err)
		}
		var steps, afterCrash int
		check := func(s *fluidSim, running []*jobRT) {
			steps++
			if s.now.Elapsed() > 9000 {
				afterCrash++
			}
			// runningJobs refills the buffer running aliases.
			round := slices.Clone(running)
			if fresh := s.runningJobs(); !samePtrs(round, fresh) {
				t.Fatalf("%v×%v at t=%v: round's running list has %d jobs, a fresh scan %d",
					tc.kind, tc.cs, s.now, len(round), len(fresh))
			}
		}
		res, err := Run(Config{
			Cluster:   core.Cluster{GPUs: 8, Cache: 4 * unit.TB, RemoteIO: unit.MBpsOf(400)},
			Policy:    pol,
			System:    tc.cs,
			Seed:      7,
			Faults:    sched,
			stepCheck: check,
		}, specs)
		if err != nil {
			t.Fatal(err)
		}
		if steps == 0 || afterCrash == 0 {
			t.Fatalf("%v×%v: %d steps checked, %d after the crash", tc.kind, tc.cs, steps, afterCrash)
		}
		requireAllJobs(t, res, specs)
	}
}
