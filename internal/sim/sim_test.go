package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/unit"
	"repro/internal/workload"
)

func mkSpec(t *testing.T, id, model, ds string, size unit.Bytes, gpus int, epochs float64) workload.JobSpec {
	t.Helper()
	m, err := workload.ModelByName(model)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.JobSpec{ID: id, Model: m, NumGPUs: gpus,
		Dataset: workload.Dataset{Name: ds, Size: size}}
	spec.NumSteps = int64(epochs * float64(size) / float64(spec.StepBytesTotal()))
	if spec.NumSteps < 1 {
		spec.NumSteps = 1
	}
	return spec
}

func runSim(t *testing.T, cfg Config, jobs []workload.JobSpec) *Result {
	t.Helper()
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func siloFIFO(t *testing.T) core.Policy {
	t.Helper()
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// TestDeterminism: identical configs yield identical results on both
// engines.
func TestDeterminism(t *testing.T) {
	jobs, err := workload.Generate(workload.DefaultTraceConfig(7, 30, 2*unit.Hour))
	if err != nil {
		t.Fatal(err)
	}
	cl := core.Cluster{GPUs: 16, Cache: unit.TiB(4), RemoteIO: unit.MBpsOf(400)}
	for _, eng := range []Engine{Fluid, Batch} {
		cfg := Config{Cluster: cl, Policy: siloFIFO(t), System: policy.SiloD, Engine: eng, Seed: 3}
		a := runSim(t, cfg, jobs)
		cfg.Policy = siloFIFO(t) // fresh policy instance, same seed
		b := runSim(t, cfg, jobs)
		if len(a.Jobs) != len(b.Jobs) {
			t.Fatalf("%v: job counts differ", eng)
		}
		for i := range a.Jobs {
			if a.Jobs[i] != b.Jobs[i] {
				t.Fatalf("%v: job %d differs: %+v vs %+v", eng, i, a.Jobs[i], b.Jobs[i])
			}
		}
	}
}

// TestSingleJobIdealDuration: an unconstrained job finishes at its
// ideal duration on both engines.
func TestSingleJobIdealDuration(t *testing.T) {
	spec := mkSpec(t, "j", "ResNet-50", "ds", unit.GiB(64), 1, 3)
	cl := core.Cluster{GPUs: 1, Cache: unit.GiB(128), RemoteIO: unit.MBpsOf(500)}
	for _, eng := range []Engine{Fluid, Batch} {
		res := runSim(t, Config{Cluster: cl, Policy: siloFIFO(t), System: policy.SiloD, Engine: eng, Seed: 1},
			[]workload.JobSpec{spec})
		ideal := spec.IdealDuration().Minutes()
		got := res.Jobs[0].JCT().Minutes()
		if math.Abs(got-ideal)/ideal > 0.05 {
			t.Errorf("%v: JCT %.1f, ideal %.1f", eng, got, ideal)
		}
	}
}

// TestWarmupThenIdeal: a cacheable job behind a slow link runs epoch 1
// at link speed and later epochs at f* — the delayed-effectiveness
// timeline of Figure 9 ("before the 460th minute all systems have the
// same performance").
func TestWarmupThenIdeal(t *testing.T) {
	spec := mkSpec(t, "j", "ResNet-50", "ds", unit.GiB(100), 1, 4)
	cl := core.Cluster{GPUs: 1, Cache: unit.GiB(128), RemoteIO: unit.MBpsOf(57)}
	for _, eng := range []Engine{Fluid, Batch} {
		res := runSim(t, Config{Cluster: cl, Policy: siloFIFO(t), System: policy.SiloD, Engine: eng, Seed: 1},
			[]workload.JobSpec{spec})
		// Expected: epoch 1 at 57 MB/s (2x epoch time), epochs 2-4 at 114.
		epochIdeal := float64(spec.Dataset.Size) / float64(unit.MBpsOf(114))
		want := (2*epochIdeal + 3*epochIdeal) / 60
		got := res.Jobs[0].JCT().Minutes()
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("%v: JCT %.1f min, want ~%.1f (cold epoch at link speed)", eng, got, want)
		}
	}
}

// TestDisableIOControlFallsBackToProviderShare: with IO control off,
// SiloD's allocations are ignored and jobs get the static equal share.
func TestDisableIOControlFallsBackToProviderShare(t *testing.T) {
	// Two jobs, one tiny demand, one large: under SiloD control the
	// large job gets the slack; under provider share it gets cap/2.
	big := mkSpec(t, "big", "ResNet-50", "ds-big", unit.TiB(2), 1, 1)
	small := mkSpec(t, "small", "BERT", "ds-small", unit.TiB(2), 1, 0.02)
	cl := core.Cluster{GPUs: 2, Cache: 0, RemoteIO: unit.MBpsOf(60)}
	with := runSim(t, Config{Cluster: cl, Policy: siloFIFO(t), System: policy.SiloD, Seed: 1},
		[]workload.JobSpec{big, small})
	without := runSim(t, Config{Cluster: cl, Policy: siloFIFO(t), System: policy.SiloD, Seed: 1,
		DisableIOControl: true}, []workload.JobSpec{big, small})
	bigWith := jctOf(with, "big")
	bigWithout := jctOf(without, "big")
	// With control: big gets 60-2=58 MB/s; without: capped at 30 while
	// BERT's unused 28 idles -> big roughly doubles.
	if bigWithout < bigWith*1.2 {
		t.Errorf("disabling IO control should slow the big job: %.0f vs %.0f min", bigWithout, bigWith)
	}
}

func jctOf(r *Result, id string) float64 {
	for _, j := range r.Jobs {
		if j.ID == id {
			return j.JCT().Minutes()
		}
	}
	return -1
}

// TestDatasetSharingCachesOnce: two jobs on one dataset fit in a cache
// that could not hold two copies, and both reach ideal speed.
func TestDatasetSharingCachesOnce(t *testing.T) {
	a := mkSpec(t, "a", "ResNet-50", "shared", unit.GiB(100), 1, 4)
	b := mkSpec(t, "b", "ResNet-50", "shared", unit.GiB(100), 1, 4)
	cl := core.Cluster{GPUs: 2, Cache: unit.GiB(110), RemoteIO: unit.MBpsOf(120)}
	for _, eng := range []Engine{Fluid, Batch} {
		res := runSim(t, Config{Cluster: cl, Policy: siloFIFO(t), System: policy.SiloD, Engine: eng, Seed: 1},
			[]workload.JobSpec{a, b})
		ideal := a.IdealDuration().Minutes()
		for _, j := range res.Jobs {
			got := j.JCT().Minutes()
			// Warm-up epoch shared at 60 MB/s each, then both at f*.
			if got > ideal*1.6 {
				t.Errorf("%v: job %s JCT %.1f vs ideal %.1f — sharing not effective", eng, j.ID, got, ideal)
			}
		}
	}
}

// TestGangQueueing: jobs queue when GPUs are scarce and FIFO order is
// respected in start times.
func TestGangQueueing(t *testing.T) {
	j1 := mkSpec(t, "j1", "ResNet-50", "d1", unit.GiB(32), 2, 2)
	j2 := mkSpec(t, "j2", "ResNet-50", "d2", unit.GiB(32), 2, 2)
	j2.Submit = 60 // a minute later
	cl := core.Cluster{GPUs: 2, Cache: unit.GiB(128), RemoteIO: unit.MBpsOf(500)}
	res := runSim(t, Config{Cluster: cl, Policy: siloFIFO(t), System: policy.SiloD, Seed: 1},
		[]workload.JobSpec{j1, j2})
	var s1, s2 JobStat
	for _, j := range res.Jobs {
		if j.ID == "j1" {
			s1 = j
		} else {
			s2 = j
		}
	}
	if s2.Start < s1.Finish {
		t.Errorf("j2 started at %.1f before j1 finished at %.1f on a full cluster",
			s2.Start.Minutes(), s1.Finish.Minutes())
	}
	if s2.Start.Sub(s2.Submit) <= 0 {
		t.Error("queued job reports no queue delay")
	}
}

// TestCurriculumJobRunsInBatchEngine: curriculum jobs are accepted and
// finish; LRU and uniform caching agree (§7.4).
func TestCurriculumJobRunsInBatchEngine(t *testing.T) {
	spec := mkSpec(t, "cur", "ResNet-50", "ds", unit.GiB(64), 1, 2)
	spec.Curriculum = &workload.CurriculumSpec{StartingPercent: 0.1, Alpha: 2, StepSize: 100}
	cl := core.Cluster{GPUs: 1, Cache: unit.GiB(32), RemoteIO: unit.MBpsOf(60)}
	var jcts []float64
	for _, cs := range []policy.CacheSystem{policy.SiloD, policy.Alluxio} {
		pol, err := policy.Build(policy.FIFOKind, cs, 1)
		if err != nil {
			t.Fatal(err)
		}
		res := runSim(t, Config{Cluster: cl, Policy: pol, System: cs, Engine: Batch, Seed: 5},
			[]workload.JobSpec{spec})
		jcts = append(jcts, res.Jobs[0].JCT().Minutes())
	}
	if math.Abs(jcts[0]-jcts[1])/jcts[0] > 0.15 {
		t.Errorf("curriculum: uniform %.1f vs LRU %.1f differ > 15%%", jcts[0], jcts[1])
	}
}

// TestIrregularPartition: a mixed cluster schedules curriculum jobs via
// the framework's fallback partition without starving them.
func TestIrregularPartition(t *testing.T) {
	reg := mkSpec(t, "reg", "ResNet-50", "d-reg", unit.GiB(64), 1, 3)
	irr := mkSpec(t, "irr", "ResNet-50", "d-irr", unit.GiB(64), 1, 3)
	irr.Curriculum = &workload.CurriculumSpec{StartingPercent: 0.1, Alpha: 2, StepSize: 200}
	pol := siloFIFO(t)
	fw := (&core.Framework{Policy: pol}).AsPolicy()
	cl := core.Cluster{GPUs: 2, Cache: unit.GiB(128), RemoteIO: unit.MBpsOf(200)}
	res := runSim(t, Config{Cluster: cl, Policy: fw, System: policy.SiloD, Engine: Batch, Seed: 2},
		[]workload.JobSpec{reg, irr})
	if len(res.Jobs) != 2 {
		t.Fatalf("finished %d jobs", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.JCT().Minutes() > 4*reg.IdealDuration().Minutes() {
			t.Errorf("job %s starved: JCT %.1f", j.ID, j.JCT().Minutes())
		}
	}
}

func TestRunValidatesInputs(t *testing.T) {
	spec := mkSpec(t, "j", "ResNet-50", "ds", unit.GiB(1), 4, 1)
	cl := core.Cluster{GPUs: 2, Cache: unit.GiB(1), RemoteIO: unit.MBpsOf(10)}
	if _, err := Run(Config{Cluster: cl, Policy: siloFIFO(t), System: policy.SiloD}, []workload.JobSpec{spec}); err == nil {
		t.Error("4-GPU job on 2-GPU cluster accepted")
	}
	if _, err := Run(Config{Cluster: cl}, nil); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := Run(Config{Cluster: core.Cluster{}, Policy: siloFIFO(t)}, nil); err == nil {
		t.Error("invalid cluster accepted")
	}
}

// TestTimelinesRecorded: the standard series exist and make sense.
func TestTimelinesRecorded(t *testing.T) {
	spec := mkSpec(t, "j", "ResNet-50", "ds", unit.GiB(64), 1, 3)
	cl := core.Cluster{GPUs: 1, Cache: unit.GiB(128), RemoteIO: unit.MBpsOf(57)}
	res := runSim(t, Config{Cluster: cl, Policy: siloFIFO(t), System: policy.SiloD, Seed: 1,
		MetricsInterval: unit.Minute}, []workload.JobSpec{spec})
	for _, name := range []string{"throughput", "ideal", "remoteio", "fairness", "cache_alloc", "cache_effective"} {
		s, ok := res.Timelines[name]
		if !ok || s.Len() == 0 {
			t.Errorf("series %q missing or empty", name)
		}
	}
	// Remote IO usage never exceeds the link capacity.
	if res.Timelines["remoteio"].MaxValue() > cl.RemoteIO.MBpsValue()*1.01 {
		t.Errorf("remote usage %v exceeds capacity", res.Timelines["remoteio"].MaxValue())
	}
	// Ideal >= throughput at all times.
	th, id := res.Timelines["throughput"], res.Timelines["ideal"]
	for i := 0; i < th.Len() && i < id.Len(); i++ {
		_, tv := th.At(i)
		_, iv := id.At(i)
		if tv > iv*1.01+1 {
			t.Errorf("throughput %v above ideal %v at sample %d", tv, iv, i)
		}
	}
}

// TestGavelPreemptsAndResumes: with more gangs than GPUs, Gavel
// time-shares — every job makes progress and finishes, and the
// preempted job's cached data survives the pause (quota kept because
// Gavel funds all active jobs' datasets).
func TestGavelPreemptsAndResumes(t *testing.T) {
	a := mkSpec(t, "a", "ResNet-50", "da", unit.GiB(64), 2, 3)
	b := mkSpec(t, "b", "ResNet-50", "db", unit.GiB(64), 2, 3)
	pol, err := policy.Build(policy.GavelKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := core.Cluster{GPUs: 2, Cache: unit.GiB(200), RemoteIO: unit.MBpsOf(300)}
	res := runSim(t, Config{Cluster: cl, Policy: pol, System: policy.SiloD, Seed: 1,
		ReschedInterval: 5 * unit.Minute}, []workload.JobSpec{a, b})
	if len(res.Jobs) != 2 {
		t.Fatalf("finished %d jobs", len(res.Jobs))
	}
	// Time sharing: both JCTs land well beyond one ideal duration but
	// under three (they split the GPU pair roughly evenly).
	ideal := a.IdealDuration().Minutes()
	for _, j := range res.Jobs {
		got := j.JCT().Minutes()
		if got < ideal*1.2 || got > ideal*3 {
			t.Errorf("job %s JCT %.1f vs ideal %.1f: not time-shared as expected", j.ID, got, ideal)
		}
	}
}

// TestCacheAllocationNeverExceedsCapacity: the recorded allocation
// timeline respects the cluster capacity at every sample, for every
// system.
func TestCacheAllocationNeverExceedsCapacity(t *testing.T) {
	jobs, err := workload.Generate(workload.DefaultTraceConfig(3, 40, 3*unit.Hour))
	if err != nil {
		t.Fatal(err)
	}
	cl := core.Cluster{GPUs: 24, Cache: unit.TiB(6), RemoteIO: unit.MBpsOf(300)}
	for _, cs := range policy.AllCacheSystems() {
		for _, k := range policy.AllSchedulerKinds() {
			pol, err := policy.Build(k, cs, 3)
			if err != nil {
				t.Fatal(err)
			}
			res := runSim(t, Config{Cluster: cl, Policy: pol, System: cs, Seed: 3}, jobs)
			capGB := float64(cl.Cache) / float64(unit.GB)
			if got := res.Timelines["cache_alloc"].MaxValue(); got > capGB*1.001 {
				t.Errorf("%v/%v: cache allocation %v GB exceeds capacity %v GB", k, cs, got, capGB)
			}
			if got := res.Timelines["remoteio"].MaxValue(); got > cl.RemoteIO.MBpsValue()*1.01 {
				t.Errorf("%v/%v: remote usage %v exceeds capacity", k, cs, got)
			}
		}
	}
}

// TestSJFEnhancedPrefersShortCacheEfficientJobs: end-to-end, the
// enhanced SJF finishes a cache-efficient short job before an IO-bound
// "deceptively short" one (§5.1's ImageNet-1k vs ImageNet-22k example).
func TestSJFEnhancedPrefersShortCacheEfficientJobs(t *testing.T) {
	small := mkSpec(t, "small", "ResNet-50", "imagenet1k", unit.GiB(100), 4, 4)
	big := mkSpec(t, "big", "ResNet-50", "imagenet22k", unit.TiB(1), 4, 0.4)
	pol, err := policy.Build(policy.SJFKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One gang slot: SJF must order them; the cluster's storage makes
	// the big dataset uncacheable and the link slow.
	cl := core.Cluster{GPUs: 4, Cache: unit.GiB(128), RemoteIO: unit.MBpsOf(120)}
	res := runSim(t, Config{Cluster: cl, Policy: pol, System: policy.SiloD, Seed: 1},
		[]workload.JobSpec{big, small})
	var fSmall, fBig unit.Time
	for _, j := range res.Jobs {
		if j.ID == "small" {
			fSmall = j.Finish
		} else {
			fBig = j.Finish
		}
	}
	if fSmall > fBig {
		t.Errorf("enhanced SJF finished the IO-bound job first: small=%.0f big=%.0f min",
			fSmall.Minutes(), fBig.Minutes())
	}
}

// TestBatchEnginePreemption exercises pause/resume in the block-level
// engine: Gavel time-shares two gangs over one GPU pair; in-flight
// fetches are abandoned on preemption and re-issued on resume, and both
// jobs complete with exact block accounting.
func TestBatchEnginePreemption(t *testing.T) {
	a := mkSpec(t, "a", "ResNet-50", "da", unit.GiB(16), 2, 2)
	b := mkSpec(t, "b", "ResNet-50", "db", unit.GiB(16), 2, 2)
	pol, err := policy.Build(policy.GavelKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := core.Cluster{GPUs: 2, Cache: unit.GiB(64), RemoteIO: unit.MBpsOf(120)}
	res := runSim(t, Config{Cluster: cl, Policy: pol, System: policy.SiloD,
		Engine: Batch, Seed: 9, ReschedInterval: 2 * unit.Minute},
		[]workload.JobSpec{a, b})
	if len(res.Jobs) != 2 {
		t.Fatalf("finished %d jobs", len(res.Jobs))
	}
	ideal := a.IdealDuration().Minutes()
	for _, j := range res.Jobs {
		got := j.JCT().Minutes()
		if got < ideal || got > 4*ideal {
			t.Errorf("job %s JCT %.1f outside time-sharing band (ideal %.1f)", j.ID, got, ideal)
		}
	}
}

// TestSubEpochJobCannotBenefitFromCache pins the §7.1.1 BERT
// observation: a job that never completes an epoch gets nothing from
// cache (items are never re-read), so its JCT is identical with a full
// cache quota and with none.
func TestSubEpochJobCannotBenefitFromCache(t *testing.T) {
	spec := mkSpec(t, "bert", "BERT", "web", unit.TiB(2), 1, 0.05)
	link := unit.MBpsOf(1) // half of BERT's 2 MB/s demand
	for _, eng := range []Engine{Fluid, Batch} {
		withCache := runSim(t, Config{
			Cluster: core.Cluster{GPUs: 1, Cache: unit.TiB(4), RemoteIO: link},
			Policy:  siloFIFO(t), System: policy.SiloD, Engine: eng, Seed: 1,
		}, []workload.JobSpec{spec})
		noCache := runSim(t, Config{
			Cluster: core.Cluster{GPUs: 1, Cache: 0, RemoteIO: link},
			Policy:  siloFIFO(t), System: policy.SiloD, Engine: eng, Seed: 1,
		}, []workload.JobSpec{spec})
		a, b := withCache.Jobs[0].JCT().Minutes(), noCache.Jobs[0].JCT().Minutes()
		if math.Abs(a-b)/b > 0.01 {
			t.Errorf("%v: cache changed a sub-epoch job's JCT: %.1f vs %.1f min", eng, a, b)
		}
		// And the job runs at link speed, not f*.
		wantMin := float64(spec.TotalBytes()) / float64(link) / 60
		if math.Abs(a-wantMin)/wantMin > 0.05 {
			t.Errorf("%v: JCT %.1f, want link-limited ~%.1f min", eng, a, wantMin)
		}
	}
}

// TestFluidRejectsCurriculum: the fluid engine's closed forms do not
// model resampled access; it must refuse rather than silently
// mis-simulate.
func TestFluidRejectsCurriculum(t *testing.T) {
	spec := mkSpec(t, "cur", "ResNet-50", "ds", unit.GiB(8), 1, 1)
	spec.Curriculum = &workload.CurriculumSpec{StartingPercent: 0.1, Alpha: 2, StepSize: 10}
	cl := core.Cluster{GPUs: 1, Cache: unit.GiB(8), RemoteIO: unit.MBpsOf(100)}
	if _, err := Run(Config{Cluster: cl, Policy: siloFIFO(t), System: policy.SiloD, Engine: Fluid},
		[]workload.JobSpec{spec}); err == nil {
		t.Fatal("fluid engine accepted a curriculum job")
	}
}

// TestByteConservation: every job's attained work at completion equals
// its specified total, for both engines and a mixed trace — the
// simulator neither loses nor invents training progress.
func TestByteConservation(t *testing.T) {
	jobs, err := workload.Generate(workload.DefaultTraceConfig(13, 20, unit.Hour))
	if err != nil {
		t.Fatal(err)
	}
	cl := core.Cluster{GPUs: 16, Cache: unit.TiB(4), RemoteIO: unit.MBpsOf(300)}
	for _, eng := range []Engine{Fluid, Batch} {
		res := runSim(t, Config{Cluster: cl, Policy: siloFIFO(t), System: policy.SiloD,
			Engine: eng, Seed: 13}, jobs)
		if len(res.Jobs) != len(jobs) {
			t.Fatalf("%v: %d of %d jobs finished", eng, len(res.Jobs), len(jobs))
		}
		byID := map[string]workload.JobSpec{}
		for _, j := range jobs {
			byID[j.ID] = j
		}
		for _, j := range res.Jobs {
			spec := byID[j.ID]
			// Minimum physically possible JCT: the ideal duration.
			if j.JCT() < spec.IdealDuration()*99/100 {
				t.Errorf("%v: job %s finished faster than physics allows: %.1f < %.1f min",
					eng, j.ID, j.JCT().Minutes(), spec.IdealDuration().Minutes())
			}
			if j.Finish < j.Start || j.Start < spec.Submit {
				t.Errorf("%v: job %s has inconsistent timestamps: %+v", eng, j.ID, j)
			}
		}
	}
}
