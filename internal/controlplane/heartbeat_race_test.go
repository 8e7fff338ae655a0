package controlplane

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datamgr"
	"repro/internal/policy"
	"repro/internal/tenant"
	"repro/internal/unit"
)

// lockClock is a virtual clock safe for concurrent readers and one or
// more advancers — the race tests need injected time AND -race.
type lockClock struct {
	mu sync.Mutex
	t  time.Time // guarded by mu
}

func (c *lockClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *lockClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// serialPlane fails any Table 3 call that overlaps another one. Rounds
// and revival re-pushes share one push routine under one lock, so their
// call sequences must never interleave.
type serialPlane struct {
	DataPlane
	inFlight atomic.Int32
}

func (p *serialPlane) serially(call func() error) error {
	defer p.inFlight.Add(-1)
	if p.inFlight.Add(1) != 1 {
		return errors.New("allocation pushed while another push sequence was mid-call")
	}
	runtime.Gosched() // hold the call open long enough to be caught
	return call()
}

func (p *serialPlane) AllocateCacheSize(dataset string, size unit.Bytes) error {
	return p.serially(func() error { return p.DataPlane.AllocateCacheSize(dataset, size) })
}

func (p *serialPlane) AllocateRemoteIO(jobID string, speed unit.Bandwidth) error {
	return p.serially(func() error { return p.DataPlane.AllocateRemoteIO(jobID, speed) })
}

// TestHeartbeatRevivalRacesScheduleRound runs node death/revival
// heartbeats, schedule rounds, and a quota-bound submit/complete storm
// concurrently, then checks the two ledgers the race could corrupt:
// the tenant admission ledger must balance to zero (every admit
// released exactly once — no lost quota), and the final round must not
// double-allocate GPUs past the cluster. Along the way no revival
// re-push may overlap a round's push.
func TestHeartbeatRevivalRacesScheduleRound(t *testing.T) {
	const (
		clusterGPUs = 8
		quotaGPUs   = 4
		jobsTotal   = 120
	)
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Capacities far above anything the storm allocates: this test is
	// about the admission ledger and lock discipline, not about the
	// data-plane ledger rejecting oversubscription.
	mgr := datamgr.New(unit.TiB(10), unit.GBpsOf(100), 1, nil)
	clk := &lockClock{t: time.Unix(0, 0)}
	s, err := NewSchedulerServer(
		core.Cluster{GPUs: clusterGPUs, Cache: unit.TiB(10), RemoteIO: unit.GBpsOf(100)},
		pol, &serialPlane{DataPlane: LocalDataPlane{Mgr: mgr}}, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	reg := tenant.NewRegistry()
	if err := reg.Register(tenant.Tenant{
		ID: "acme", Class: tenant.Standard,
		Quota: tenant.Quota{GPUs: quotaGPUs},
	}); err != nil {
		t.Fatal(err)
	}
	s.ConfigureTenants(reg)
	s.SetNodeLivenessTimeout(time.Second)
	if err := s.Heartbeat(HeartbeatRequest{Node: "n1", GPUs: clusterGPUs, Cache: unit.TiB(10)}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	admitted := make(chan string, jobsTotal)
	errs := make(chan error, 64)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	var storm sync.WaitGroup // submitter + completer: finish on their own
	var loops sync.WaitGroup // heartbeater + scheduler: run until stop

	// Submitter: pushes jobsTotal jobs through a 4-GPU quota, spinning
	// on over-quota rejections until the completer frees a slot.
	storm.Add(1)
	go func() {
		defer storm.Done()
		defer close(admitted)
		var oq *tenant.OverQuotaError
		for i := 0; i < jobsTotal; i++ {
			id := fmt.Sprintf("race-%03d", i)
			for {
				err := s.Submit(SubmitJobRequest{
					JobID: id, Model: "ResNet-50", Dataset: "imagenet1k",
					DatasetSize: unit.GiB(10), NumGPUs: 1,
					IdealThroughput: unit.MBpsOf(100), TotalBytes: unit.GiB(10),
					Tenant: "acme",
				})
				if err == nil {
					admitted <- id
					break
				}
				if !errors.As(err, &oq) {
					report(fmt.Errorf("submit %s: %w", id, err))
					return
				}
			}
		}
	}()

	// Completer: marks every admitted job done, which releases its
	// quota charge back to the tenant.
	storm.Add(1)
	go func() {
		defer storm.Done()
		for id := range admitted {
			if err := s.Progress(ProgressRequest{
				JobID: id, AttainedBytes: unit.GiB(10), Done: true,
			}); err != nil {
				report(fmt.Errorf("complete %s: %w", id, err))
				return
			}
		}
	}()

	// Heartbeater: advances past the liveness timeout and reports in
	// again, so rounds keep declaring n1 dead and heartbeats keep
	// reviving it (re-pushing allocations mid-storm).
	loops.Add(1)
	go func() {
		defer loops.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			clk.advance(2 * time.Second)
			if err := s.Heartbeat(HeartbeatRequest{Node: "n1", GPUs: clusterGPUs, Cache: unit.TiB(10)}); err != nil {
				report(fmt.Errorf("heartbeat: %w", err))
				return
			}
		}
	}()

	// Scheduler: rounds race everything above.
	loops.Add(1)
	go func() {
		defer loops.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.RunRound(context.Background(), ServeConfig{}); err != nil {
				report(fmt.Errorf("round: %w", err))
				return
			}
		}
	}()

	// Wait for the submit/complete storm to finish (a wedge here means
	// quota was lost — released charges never came back), then stop the
	// background loops.
	stormDone := make(chan struct{})
	go func() { defer close(stormDone); storm.Wait() }()
	select {
	case <-stormDone:
	case <-time.After(30 * time.Second):
		t.Fatal("storm wedged: a quota release was lost in the race")
	case err := <-errs:
		t.Fatal(err)
	}
	close(stop)
	loops.Wait()

	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Guaranteed revival cycle after the storm, so the re-push path ran
	// at least once even under an unlucky interleaving.
	clk.advance(2 * time.Second)
	if err := s.Schedule(); err != nil { // declares n1 dead
		t.Fatal(err)
	}
	if err := s.Heartbeat(HeartbeatRequest{Node: "n1", GPUs: clusterGPUs, Cache: unit.TiB(10)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(); err != nil {
		t.Fatal(err)
	}
	snap := s.Registry().Snapshot()
	if rec := snap.CounterValue("silod_sched_node_recoveries_total", nil); rec < 1 {
		t.Errorf("node never revived during the storm (recoveries %v)", rec)
	}

	// No lost quota: every admit was released exactly once, so the
	// tenant ledger reads zero.
	tenants := s.Tenants()
	if len(tenants) != 1 {
		t.Fatalf("tenant table: %+v", tenants)
	}
	acme := tenants[0]
	if acme.ActiveJobs != 0 || acme.GPUsInUse != 0 || acme.CacheInUse != 0 {
		t.Errorf("quota leaked through the race: jobs %d gpus %d cache %v",
			acme.ActiveJobs, acme.GPUsInUse, acme.CacheInUse)
	}

	// No double allocation: every job completed, so nothing runs and
	// nothing holds GPUs.
	var running, gpus int
	for _, j := range s.Jobs() {
		if !j.Done {
			t.Errorf("job %s never completed", j.JobID)
		}
		if j.Running {
			running++
			gpus += j.GPUs
		}
	}
	if running != 0 || gpus != 0 {
		t.Errorf("%d jobs still running on %d GPUs after completion", running, gpus)
	}
}
