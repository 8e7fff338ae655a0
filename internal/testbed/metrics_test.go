package testbed

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/unit"
	"repro/internal/workload"
)

// TestRunWithMetrics attaches a registry and timeline to a short run
// and checks the data manager's cache counters, the testbed's JCT
// histogram, and the per-job event stream all populate.
func TestRunWithMetrics(t *testing.T) {
	specs := []workload.JobSpec{
		tinyJob(t, "j1", "ds", 16, 3),
		tinyJob(t, "j2", "ds", 16, 3),
	}
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry("testbed")
	tl := metrics.NewTimeline(0)
	res, err := Run(Config{
		Cluster:         core.Cluster{GPUs: 2, Cache: unit.GiB(32), RemoteIO: unit.MBpsOf(228)},
		Policy:          pol,
		System:          policy.SiloD,
		TimeScale:       1000,
		BlockSize:       unit.GiB(2),
		ReschedInterval: 30,
		Seed:            1,
		MaxWall:         60 * time.Second,
		Metrics:         reg,
		Timeline:        tl,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(specs) {
		t.Fatalf("finished %d jobs, want %d", len(res.Jobs), len(specs))
	}

	snap := reg.Snapshot()
	pol2 := map[string]string{"policy": "uniform"}
	hits := snap.CounterValue("silod_cache_hits_total", pol2)
	misses := snap.CounterValue("silod_cache_misses_total", pol2)
	if hits <= 0 || misses <= 0 {
		t.Errorf("cache hits/misses = %v/%v, want both > 0", hits, misses)
	}
	if got := snap.CounterValue("silod_remoteio_egress_bytes_total", nil); got <= 0 {
		t.Errorf("remote egress = %v, want > 0", got)
	}
	if got := snap.CounterValue("silod_testbed_rounds_total", nil); got <= 0 {
		t.Errorf("rounds = %v, want > 0", got)
	}
	jct, ok := snap.Get("silod_testbed_jct_minutes", nil)
	if !ok || jct.Count != int64(len(specs)) {
		t.Errorf("JCT histogram = %+v, want count %d", jct, len(specs))
	}

	count := map[metrics.EventKind]int{}
	for _, e := range tl.Events() {
		count[e.Kind]++
	}
	for _, kind := range []metrics.EventKind{metrics.EventSubmit, metrics.EventSchedule, metrics.EventComplete} {
		if n := count[kind]; n != len(specs) {
			t.Errorf("%s events = %d, want %d", kind, n, len(specs))
		}
	}
}
