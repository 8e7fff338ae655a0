package testbed

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/unit"
	"repro/internal/workload"
)

// TestFaultsAppliedToLiveManager is the concurrency stress for fault
// injection (run under -race by `make race`): cache-capacity loss and
// remote-IO degradation land mid-run while loader goroutines hammer
// the pool and token buckets, and every job still finishes. The cache
// loss invalidates contents under the jobs' feet; the IO loss
// re-throttles their buckets; both are later restored.
func TestFaultsAppliedToLiveManager(t *testing.T) {
	specs := []workload.JobSpec{
		tinyJob(t, "a", "ds-a", 32, 4),
		tinyJob(t, "b", "ds-b", 32, 4),
		tinyJob(t, "c", "ds-c", 32, 4),
	}
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry("testbed")
	// Times are simulated seconds; at TimeScale 2000 the whole window
	// fits in a few wall seconds. The loss window opens early and closes
	// while the (slowed) jobs are still running: with most of the cache
	// and 90% of the egress gone they crawl until the restore, so both
	// restores observably fire mid-run.
	sched := &faults.Schedule{Events: []faults.Event{
		{At: 300, Kind: faults.KindCacheLoss, Cache: unit.GiB(96)},
		{At: 300, Kind: faults.KindIOLoss, RemoteIO: unit.MBpsOf(270)},
		{At: 1500, Kind: faults.KindCacheRestore, Cache: unit.GiB(96)},
		{At: 1500, Kind: faults.KindIORestore, RemoteIO: unit.MBpsOf(270)},
	}}
	res, err := Run(Config{
		Cluster:         core.Cluster{GPUs: 3, Cache: unit.GiB(128), RemoteIO: unit.MBpsOf(300)},
		Policy:          pol,
		System:          policy.SiloD,
		TimeScale:       2000,
		BlockSize:       unit.GiB(2),
		ReschedInterval: 30,
		Seed:            1,
		MaxWall:         90 * time.Second,
		Faults:          sched,
		Metrics:         reg,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(specs) {
		t.Fatalf("finished %d jobs, want %d", len(res.Jobs), len(specs))
	}
	snap := reg.Snapshot()
	for _, kind := range []string{"cache_loss", "io_loss", "cache_restore", "io_restore"} {
		if v := snap.CounterValue("silod_faults_injected_total", map[string]string{"kind": kind}); v != 1 {
			t.Errorf("injected{kind=%s} = %v, want 1", kind, v)
		}
	}
	if v := snap.CounterValue("silod_faults_recoveries_total", nil); v != 2 {
		t.Errorf("recoveries = %v, want 2", v)
	}
	if v, ok := snap.Get("silod_faults_time_degraded_seconds", nil); !ok || *v.Value <= 0 {
		t.Errorf("time degraded = %+v, want > 0", v)
	}
	// Fully restored by the end.
	if v, ok := snap.Get("silod_faults_degraded", nil); !ok || *v.Value != 0 {
		t.Errorf("degraded gauge = %+v, want 0 after restore", v)
	}
}

// TestFaultScheduleKindValidation: the testbed has no preemption model,
// so GPU and job-crash kinds are rejected up front with a pointer to
// the simulator.
func TestFaultScheduleKindValidation(t *testing.T) {
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{
		Cluster:   core.Cluster{GPUs: 2, Cache: unit.GiB(64), RemoteIO: unit.MBpsOf(100)},
		Policy:    pol,
		System:    policy.SiloD,
		TimeScale: 1000,
		Faults: &faults.Schedule{Events: []faults.Event{
			{At: 60, Kind: faults.KindGPULoss, GPUs: 1},
		}},
	}, []workload.JobSpec{tinyJob(t, "j", "ds", 8, 1)})
	if err == nil || !strings.Contains(err.Error(), "use the simulator") {
		t.Errorf("Run with gpu_loss = %v, want unsupported-kind error", err)
	}
}
