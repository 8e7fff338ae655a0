package testbed

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/unit"
	"repro/internal/workload"
)

// tinyJob builds a fast-to-emulate job: small dataset, few epochs.
func tinyJob(t *testing.T, id string, dsName string, dsGiB float64, epochs float64) workload.JobSpec {
	t.Helper()
	m, err := workload.ModelByName("ResNet-50")
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.JobSpec{
		ID: id, Model: m, NumGPUs: 1,
		Dataset: workload.Dataset{Name: dsName, Size: unit.GiB(dsGiB)},
	}
	spec.NumSteps = int64(epochs * float64(spec.Dataset.Size) / float64(spec.StepBytesTotal()))
	if spec.NumSteps < 1 {
		spec.NumSteps = 1
	}
	return spec
}

// TestSingleJobRunsAtIdealWhenCached: a fully cacheable job should
// finish close to its ideal duration (warm-up epoch at remote speed,
// remaining epochs compute-bound).
func TestSingleJobRunsAtIdealWhenCached(t *testing.T) {
	spec := tinyJob(t, "j", "ds", 32, 4)
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Cluster:         core.Cluster{GPUs: 1, Cache: unit.GiB(64), RemoteIO: unit.MBpsOf(114)},
		Policy:          pol,
		System:          policy.SiloD,
		TimeScale:       1000, // keep per-block sleeps well above timer resolution
		BlockSize:       unit.GiB(2),
		ReschedInterval: 30,
		Seed:            1,
		MaxWall:         30 * time.Second,
	}, []workload.JobSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 1 {
		t.Fatalf("finished %d jobs", len(res.Jobs))
	}
	ideal := spec.IdealDuration().Minutes()
	got := res.Jobs[0].Finish.Minutes()
	// With the full remote link matching f*, even the cold epoch runs
	// at ideal speed; allow generous scheduling/timer slack.
	if got < ideal*0.9 || got > ideal*1.5 {
		t.Errorf("JCT %.1f min, ideal %.1f min", got, ideal)
	}
}

// TestThrottledJobSlowsProportionally: with an uncacheable dataset and
// a remote link at half of f*, the testbed JCT should be ~2x ideal.
func TestThrottledJobSlowsProportionally(t *testing.T) {
	spec := tinyJob(t, "j", "ds", 64, 2)
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		// No cache at all: the job is purely remote-IO bound.
		Cluster:         core.Cluster{GPUs: 1, Cache: 0, RemoteIO: unit.MBpsOf(57)},
		Policy:          pol,
		System:          policy.SiloD,
		TimeScale:       2000,
		BlockSize:       unit.GiB(2),
		ReschedInterval: 30,
		Seed:            1,
		MaxWall:         60 * time.Second,
	}, []workload.JobSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	ideal := spec.IdealDuration().Minutes()
	got := res.Jobs[0].Finish.Minutes()
	ratio := got / ideal
	if math.Abs(ratio-2) > 0.5 {
		t.Errorf("half-bandwidth slowdown %.2fx, want ~2x (JCT %.1f vs ideal %.1f)", ratio, got, ideal)
	}
}

func TestRunValidation(t *testing.T) {
	spec := tinyJob(t, "j", "ds", 8, 1)
	pol, _ := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if _, err := Run(Config{TimeScale: 0, Cluster: core.Cluster{GPUs: 1}, Policy: pol}, nil); err == nil {
		t.Error("zero time scale accepted")
	}
	big := spec
	big.NumGPUs = 4
	if _, err := Run(Config{
		TimeScale: 1000,
		Cluster:   core.Cluster{GPUs: 1, Cache: unit.GiB(1), RemoteIO: unit.MBpsOf(10)},
		Policy:    pol, System: policy.SiloD,
	}, []workload.JobSpec{big}); err == nil {
		t.Error("oversubscribed gang accepted")
	}
}

// TestTwoJobsShareBandwidth: two identical uncacheable jobs split the
// link and finish around the same (doubled) time.
func TestTwoJobsShareBandwidth(t *testing.T) {
	a := tinyJob(t, "a", "ds-a", 32, 2)
	b := tinyJob(t, "b", "ds-b", 32, 2)
	pol, _ := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	res, err := Run(Config{
		Cluster:         core.Cluster{GPUs: 2, Cache: 0, RemoteIO: unit.MBpsOf(114)},
		Policy:          pol,
		System:          policy.SiloD,
		TimeScale:       2000,
		BlockSize:       unit.GiB(2),
		ReschedInterval: 30,
		Seed:            1,
		MaxWall:         60 * time.Second,
	}, []workload.JobSpec{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("finished %d jobs", len(res.Jobs))
	}
	fa := res.Jobs[0].Finish.Minutes()
	fb := res.Jobs[1].Finish.Minutes()
	if math.Abs(fa-fb)/math.Max(fa, fb) > 0.25 {
		t.Errorf("identical jobs finished far apart: %.1f vs %.1f min", fa, fb)
	}
	ideal := a.IdealDuration().Minutes()
	if avg := (fa + fb) / 2; avg < 1.5*ideal {
		t.Errorf("sharing a half-capacity link should roughly double JCT: %.1f vs ideal %.1f", avg, ideal)
	}
}
