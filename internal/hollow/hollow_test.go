package hollow

import (
	"testing"
	"time"

	"repro/internal/policy"
)

// smallConfig is a quickly-runnable shape with a deterministic latency
// clock (a counter, not the wall), so the whole Result is reproducible.
func smallConfig(seed int64) Config {
	tick := time.Unix(0, 0)
	return Config{
		Nodes:        64,
		GPUsPerNode:  4,
		CachePerNode: 64 << 30,
		Jobs:         3000,
		Datasets:     32,
		Rounds:       30,
		JobRounds:    6,
		Scheduler:    policy.FIFOKind,
		System:       policy.SiloD,
		Seed:         seed,
		Now: func() time.Time {
			tick = tick.Add(time.Millisecond)
			return tick
		},
	}
}

// TestSameSeedByteIdentical is the harness's own identity gate: two
// runs with the same seed must agree on every deterministic field —
// most importantly the push-sequence digest, which covers each
// allocation decision the scheduler emitted, in order.
func TestSameSeedByteIdentical(t *testing.T) {
	a, err := Run(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("same-seed hollow runs differ:\n  a: %+v\n  b: %+v", *a, *b)
	}
	c, err := Run(smallConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Fatal("different seeds produced the same push digest; digest is not covering the decision sequence")
	}
}

// TestRunShape sanity-checks the bookkeeping: all jobs submit, all jobs
// whose JobRounds fit in the run complete, and the latency stats are
// ordered.
func TestRunShape(t *testing.T) {
	cfg := smallConfig(11)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != cfg.Jobs {
		t.Errorf("submitted %d jobs, want %d", res.Jobs, cfg.Jobs)
	}
	if res.Completed == 0 || res.Completed > res.Jobs {
		t.Errorf("completed %d of %d jobs", res.Completed, res.Jobs)
	}
	p := res.RoundLatency
	if p.P50 > p.P90 || p.P90 > p.P99 || p.P99 > p.Max {
		t.Errorf("percentiles out of order: %+v", p)
	}
	if res.RoundsPerSec <= 0 {
		t.Errorf("rounds/sec %v, want > 0", res.RoundsPerSec)
	}
}

// TestConfigValidate rejects impossible shapes.
func TestConfigValidate(t *testing.T) {
	bad := smallConfig(1)
	bad.Rounds = 0
	if _, err := Run(bad); err == nil {
		t.Fatal("zero-round config accepted")
	}
	bad = smallConfig(1)
	bad.Nodes = 0
	if _, err := Run(bad); err == nil {
		t.Fatal("zero-node config accepted")
	}
}

// TestPushStreamPinned pins the scheduler's push stream — every
// data-plane call of every round, in order — on two shapes small enough
// for tier-1. The constants were captured when rounds stopped pushing
// values the data plane already holds (the previous ones, b56db84425d7dac8
// and 0eb381730bf2698a, hashed every value of every round); like the
// 10k-node digest in docs/performance.md they move only with a
// deliberate, documented change of the push contract. The controlplane
// package's TestPushStreamMatchesReference checks the same shapes'
// streams against the full-resend reference round.
func TestPushStreamPinned(t *testing.T) {
	for _, tc := range []struct {
		sched policy.SchedulerKind
		want  string
	}{
		{policy.FIFOKind, "28c59f383c3d0237"},
		{policy.SJFKind, "ee84d6a03cf820e6"},
	} {
		cfg := smallConfig(42)
		cfg.Nodes, cfg.Jobs, cfg.Datasets, cfg.Rounds, cfg.JobRounds = 48, 3000, 16, 30, 4
		cfg.Scheduler = tc.sched
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Digest != tc.want {
			t.Errorf("%v x SiloD push digest %s, want %s", tc.sched, res.Digest, tc.want)
		}
	}
}
