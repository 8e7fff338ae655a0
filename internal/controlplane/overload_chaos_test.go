package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/datamgr"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/policy"
	"repro/internal/simrng"
	"repro/internal/tenant"
	"repro/internal/unit"
)

// chaosSummary is the canonical JSON the overload chaos run emits;
// byte-identity of two same-seed runs is asserted over this.
type chaosSummary struct {
	Tiers          map[string]loadgen.TierStats `json:"tiers"`
	Rounds         int                          `json:"rounds"`
	MaxDepth       int                          `json:"max_depth"`
	FinalDepth     int                          `json:"final_depth"`
	FinalState     string                       `json:"final_state"`
	AdmittedJobs   int                          `json:"admitted_jobs"`
	DegradedRounds int                          `json:"degraded_rounds"`
	AsyncErrors    float64                      `json:"async_errors"`
}

// runOverloadChaos replays a seeded 10x-overload burst against a
// virtual-clock scheduler in queued-submission mode while a PR-4 fault
// schedule degrades the cluster underneath it, then keeps running
// rounds until the backlog fully drains. Single-goroutine and fully
// seeded: two runs with the same seed must be byte-identical.
func runOverloadChaos(t *testing.T, seed int64) chaosSummary {
	t.Helper()
	base := core.Cluster{GPUs: 8, Cache: unit.GiB(100), RemoteIO: unit.MBpsOf(200)}
	// Capacity shocks mid-burst: half the GPUs and half the cache go
	// away, then come back.
	schedule := &faults.Schedule{Events: []faults.Event{
		{At: 2, Kind: faults.KindGPULoss, GPUs: 4},
		{At: 3, Kind: faults.KindCacheLoss, Cache: unit.GiB(50)},
		{At: 6, Kind: faults.KindGPURestore, GPUs: 4},
		{At: 7, Kind: faults.KindCacheRestore, Cache: unit.GiB(50)},
	}}
	inj, err := faults.NewInjector(base, schedule, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	mgr := datamgr.New(base.Cache, base.RemoteIO, 1, nil)
	vc := newVClock()
	s, err := NewSchedulerServer(base, pol, LocalDataPlane{Mgr: mgr}, vc.now)
	if err != nil {
		t.Fatal(err)
	}
	reg := tenant.NewRegistry()
	for _, tn := range loadgen.Tenants() {
		if err := reg.Register(tn); err != nil {
			t.Fatal(err)
		}
	}
	s.ConfigureTenants(reg)
	q, err := admission.New(admission.Config{Capacity: 64, HighWater: 12, StandardWater: 24},
		s.Registry(), simrng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	s.ConfigureAdmission(q)

	// Rounds drain 8 submissions/second; the burst arrives at ~40/s
	// (MeanIAT 25ms) across 300 jobs — a sustained 5x overload with
	// CV-2 bursts peaking well past 10x the drain rate.
	const batch = 8
	plan, err := loadgen.Plan(loadgen.Spec{
		Seed: seed, Jobs: 300,
		MeanIAT: 25 * time.Millisecond, CV: 2,
		Datasets: 10, MinDataset: unit.GiB(1), MaxDataset: unit.GiB(20),
		MaxGPUs:    2,
		CritWeight: 1, StdWeight: 2, ShedWeight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	var report loadgen.Report
	sum := chaosSummary{Tiers: map[string]loadgen.TierStats{}}
	next := 0
	drainedAt := -1
	for tick := 0; ; tick++ {
		now := time.Duration(tick) * time.Second
		vc.t = time.Unix(0, 0).Add(now)
		vnow := unit.Time(now.Seconds())
		for {
			if _, ok := inj.Next(vnow); !ok {
				break
			}
		}
		eff := inj.Effective()
		if err := s.Heartbeat(HeartbeatRequest{Node: "n1", GPUs: eff.GPUs, Cache: eff.Cache}); err != nil {
			t.Fatal(err)
		}
		// Offer every arrival due by now through the real HTTP handler.
		for next < len(plan) && plan[next].At <= now {
			a := plan[next]
			next++
			body, err := json.Marshal(SubmitJobRequest{
				JobID: a.JobID, Model: "ResNet-50",
				Dataset: a.Dataset, DatasetSize: a.DatasetSize,
				NumGPUs: a.NumGPUs, IdealThroughput: a.IdealThroughput,
				TotalBytes: a.TotalBytes, Tenant: a.Tenant,
			})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
			switch rec.Code {
			case 202:
				report.Record(a.SLO, loadgen.StatusAccepted)
			case 503:
				if rec.Header().Get("Retry-After") == "" {
					t.Fatalf("shed response for %s has no Retry-After", a.JobID)
				}
				report.Record(a.SLO, loadgen.StatusShed)
			case 400, 429:
				report.Record(a.SLO, loadgen.StatusRejected)
			default:
				report.Record(a.SLO, loadgen.StatusError)
			}
		}
		if d := q.Depth(); d > sum.MaxDepth {
			sum.MaxDepth = d
		}
		if inj.Degraded() {
			sum.DegradedRounds++
		}
		if err := s.RunRound(context.Background(), ServeConfig{Batch: batch, RoundDeadline: time.Minute}); err != nil {
			t.Fatalf("round at tick %d: %v", tick, err)
		}
		sum.Rounds++
		if next >= len(plan) && q.Depth() == 0 {
			if drainedAt < 0 {
				drainedAt = tick
			}
			// A few steady-state rounds past recovery, then stop.
			if tick >= drainedAt+3 {
				break
			}
		}
		if tick > 600 {
			t.Fatalf("no recovery after %d rounds (depth %d, %d/%d offered)",
				tick, q.Depth(), next, len(plan))
		}
	}
	for _, c := range tenant.Classes() {
		sum.Tiers[c.String()] = report.Tier(c)
	}
	sum.FinalDepth = q.Depth()
	sum.AdmittedJobs = len(s.Jobs())
	snap := s.Registry().Snapshot()
	sum.FinalState = admission.State(snap.CounterValue("silod_admission_state", nil)).String()
	sum.AsyncErrors = snap.CounterValue("silod_sched_async_submit_errors_total", nil)

	if !report.ShedMonotone() {
		t.Errorf("shed fractions not monotone in SLO rank: crit %v std %v shed %v",
			report.Tier(tenant.Critical).ShedFraction(),
			report.Tier(tenant.Standard).ShedFraction(),
			report.Tier(tenant.Sheddable).ShedFraction())
	}
	if got := report.Tier(tenant.Critical).Shed; got != 0 {
		t.Errorf("critical tier shed %d submissions during overload", got)
	}
	if shed := report.Tier(tenant.Sheddable); shed.Shed == 0 {
		t.Errorf("10x burst shed nothing from the sheddable tier: %+v", shed)
	}
	if sum.FinalDepth != 0 || sum.FinalState != "open" {
		t.Errorf("no recovery to steady state: depth %d state %s", sum.FinalDepth, sum.FinalState)
	}
	if sum.AsyncErrors != 0 {
		t.Errorf("round drains dropped %v submissions", sum.AsyncErrors)
	}
	if want := report.Total().Accepted; sum.AdmittedJobs != want {
		t.Errorf("admitted jobs %d != accepted submissions %d", sum.AdmittedJobs, want)
	}
	if sum.DegradedRounds == 0 {
		t.Error("fault schedule never degraded the cluster")
	}
	return sum
}

// TestOverloadChaos is the serving-mode acceptance test: a 10x burst
// plus a fault schedule must shed by SLO rank (critical never), keep
// rounds under their deadline, and recover to an empty open queue —
// and the whole run must be byte-identical for a fixed seed.
func TestOverloadChaos(t *testing.T) {
	a := runOverloadChaos(t, 42)
	b := runOverloadChaos(t, 42)
	ja, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Errorf("same-seed chaos runs diverged:\n%s\n---\n%s", ja, jb)
	}
	// A different seed reshuffles the storm but the invariants held
	// inside runOverloadChaos for it too.
	runOverloadChaos(t, 7)
}
