package controlplane

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datamgr"
	"repro/internal/policy"
	"repro/internal/unit"
)

// scriptPolicy allots whatever the test scripted: one GPU and 10 GiB of
// cache per job, and the remote IO in the table. It declares no
// capability, so every round solves.
type scriptPolicy struct {
	mu     sync.Mutex
	remote map[string]unit.Bandwidth // guarded by mu
}

func (p *scriptPolicy) Name() string { return "script" }

func (p *scriptPolicy) set(remote map[string]unit.Bandwidth) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.remote = remote
}

func (p *scriptPolicy) Assign(_ core.Cluster, _ unit.Time, jobs []core.JobView) core.Assignment {
	p.mu.Lock()
	defer p.mu.Unlock()
	a := core.NewAssignment()
	for _, j := range jobs {
		a.GPUs[j.ID] = 1
		a.CacheQuota[j.DatasetKey] = unit.GiB(10)
		a.RemoteIO[j.ID] = p.remote[j.ID]
	}
	return a
}

// hookPlane logs the two Table 3 calls and lets a test fail or stall a
// chosen one before it reaches the wrapped plane.
type hookPlane struct {
	DataPlane
	mu   sync.Mutex
	log  []string                // guarded by mu
	hook func(call string) error // guarded by mu
}

func (p *hookPlane) before(call string, value float64) error {
	p.mu.Lock()
	p.log = append(p.log, fmt.Sprintf("%s %v", call, value))
	hook := p.hook
	p.mu.Unlock()
	if hook == nil {
		return nil
	}
	return hook(call)
}

func (p *hookPlane) AllocateCacheSize(dataset string, size unit.Bytes) error {
	if err := p.before("cache "+dataset, float64(size/unit.GiB(1))); err != nil {
		return err
	}
	return p.DataPlane.AllocateCacheSize(dataset, size)
}

func (p *hookPlane) AllocateRemoteIO(jobID string, speed unit.Bandwidth) error {
	if err := p.before("io "+jobID, float64(speed/unit.MBpsOf(1))); err != nil {
		return err
	}
	return p.DataPlane.AllocateRemoteIO(jobID, speed)
}

func (p *hookPlane) setHook(hook func(string) error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hook = hook
}

func (p *hookPlane) take() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.log
	p.log = nil
	return out
}

// bookStack is a scheduler over a real data manager whose 100 MB/s
// ledger rejects oversubscription, with jobs a and b holding 20 and
// 80 MB/s after the first round. Swapping those rates is only feasible
// decrease first, and in key order a's raise comes first.
func bookStack(t *testing.T, clock func() time.Time) (*SchedulerServer, *scriptPolicy, *hookPlane, *datamgr.Manager) {
	t.Helper()
	mgr := datamgr.New(unit.GiB(100), unit.MBpsOf(100), 1, nil)
	plane := &hookPlane{DataPlane: LocalDataPlane{Mgr: mgr}}
	pol := &scriptPolicy{}
	s, err := NewSchedulerServer(core.Cluster{GPUs: 8, Cache: unit.GiB(100), RemoteIO: unit.MBpsOf(100)}, pol, plane, clock)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if err := s.Submit(submitReq(id, 1, unit.GiB(20))); err != nil {
			t.Fatal(err)
		}
	}
	pol.set(map[string]unit.Bandwidth{"a": unit.MBpsOf(20), "b": unit.MBpsOf(80)})
	if err := s.Schedule(); err != nil {
		t.Fatal(err)
	}
	plane.take()
	return s, pol, plane, mgr
}

func ledgerRates(t *testing.T, mgr *datamgr.Manager) [2]unit.Bandwidth {
	t.Helper()
	var out [2]unit.Bandwidth
	for i, id := range []string{"a", "b"} {
		st, err := mgr.Stats(id)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = st.RemoteIO
	}
	return out
}

// TestAnnotationsSharedDatasetOrderIndependent: a job submitted since
// the last round carries no allocation yet and must not zero the
// persisted quota of a dataset it shares, whichever sharer the job map
// yields last.
func TestAnnotationsSharedDatasetOrderIndependent(t *testing.T) {
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSchedulerServer(core.Cluster{GPUs: 8, Cache: unit.GiB(100), RemoteIO: unit.MBpsOf(100)},
		pol, &recordingPlane{}, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(submitReq("a", 1, unit.GiB(40))); err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(); err != nil {
		t.Fatal(err)
	}
	want := s.Jobs()[0].CacheQuota
	if want <= 0 {
		t.Fatalf("job a got no cache quota: %+v", s.Jobs()[0])
	}
	late := submitReq("b", 1, unit.GiB(40))
	late.Dataset = "ds-a"
	if err := s.Submit(late); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if got := s.Annotations().Quotas["ds-a"]; got != want {
			t.Fatalf("read %d: annotations persist quota %v for ds-a, the last round decided %v", i, got, want)
		}
	}
}

// TestRoundReclassifiesAfterFailedPush: the round after a failed push
// must classify every value against what landed at the data plane, not
// against what the failed round meant to send. Here b's decrease fails,
// so a's raise never went out; if the next round took a's raise for
// already booked it would re-send it in the decrease phase, ahead of
// b's decrease, and the ledger would reject it.
func TestRoundReclassifiesAfterFailedPush(t *testing.T) {
	s, pol, plane, mgr := bookStack(t, time.Now)
	pol.set(map[string]unit.Bandwidth{"a": unit.MBpsOf(80), "b": unit.MBpsOf(20)})
	injected := errors.New("injected data-plane failure")
	plane.setHook(func(call string) error {
		if call == "io b" {
			plane.setHook(nil)
			return injected
		}
		return nil
	})
	if err := s.Schedule(); !errors.Is(err, injected) {
		t.Fatalf("round with a failing push returned %v", err)
	}
	if got := ledgerRates(t, mgr); got != [2]unit.Bandwidth{unit.MBpsOf(20), unit.MBpsOf(80)} {
		t.Fatalf("ledger after the failed round: %v", got)
	}
	plane.take()
	if err := s.Schedule(); err != nil {
		t.Fatalf("round after the failed push: %v", err)
	}
	want := []string{"cache ds-a 10", "cache ds-b 10", "io b 20", "io a 80"}
	if got := plane.take(); !reflect.DeepEqual(got, want) {
		t.Errorf("push order %q, want %q", got, want)
	}
	if got := ledgerRates(t, mgr); got != [2]unit.Bandwidth{unit.MBpsOf(80), unit.MBpsOf(20)} {
		t.Errorf("ledger did not converge: %v", got)
	}
	if n := s.Registry().Snapshot().CounterValue("silod_sched_push_errors_total", nil); n != 1 {
		t.Errorf("%v push errors, want only the injected one", n)
	}
}

// TestRevivalWaitsForRoundInFlight stalls a round between its two push
// phases' worth of work (at its first remote-IO call) and revives a
// node meanwhile. The revival re-push must wait for the round, then
// go out sorted and decreases-first like a round's — against the real
// ledger, which fails either call sequence if a raise overtakes the
// decrease that makes room for it.
func TestRevivalWaitsForRoundInFlight(t *testing.T) {
	clk := &lockClock{t: time.Unix(0, 0)}
	s, pol, plane, mgr := bookStack(t, clk.now)
	s.SetNodeLivenessTimeout(time.Second)
	beat := func(node string) error {
		return s.Heartbeat(HeartbeatRequest{Node: node, GPUs: 4, Cache: unit.GiB(50)})
	}
	for _, node := range []string{"n1", "n2"} {
		if err := beat(node); err != nil {
			t.Fatal(err)
		}
	}
	clk.advance(2 * time.Second)
	if err := beat("n1"); err != nil { // n2 stays silent: the next round declares it dead
		t.Fatal(err)
	}
	pol.set(map[string]unit.Bandwidth{"a": unit.MBpsOf(80), "b": unit.MBpsOf(20)})
	stalled, release := make(chan struct{}), make(chan struct{})
	plane.setHook(func(call string) error {
		if call == "io b" {
			plane.setHook(nil)
			close(stalled)
			<-release
		}
		return nil
	})
	roundErr, beatErr := make(chan error, 1), make(chan error, 1)
	go func() { roundErr <- s.Schedule() }()
	<-stalled
	go func() { beatErr <- beat("n2") }()
	// The heartbeat marks n2 live before it re-pushes; once that shows,
	// the re-push is either waiting for the round or overtaking it.
	for live := false; !live; runtime.Gosched() {
		for _, n := range s.Nodes() {
			live = live || (n.Node == "n2" && n.Live)
		}
	}
	close(release)
	if err := <-roundErr; err != nil {
		t.Fatalf("round: %v", err)
	}
	if err := <-beatErr; err != nil {
		t.Fatalf("revival heartbeat: %v", err)
	}
	want := []string{
		"cache ds-a 10", "cache ds-b 10", "io b 20", "io a 80", // the round: b's decrease, then a's raise
		"cache ds-a 10", "cache ds-b 10", "io a 80", "io b 20", // the revival: all booked, so one sorted pass
	}
	if got := plane.take(); !reflect.DeepEqual(got, want) {
		t.Errorf("push order %q, want %q", got, want)
	}
	if got := ledgerRates(t, mgr); got != [2]unit.Bandwidth{unit.MBpsOf(80), unit.MBpsOf(20)} {
		t.Errorf("ledger after round and revival: %v", got)
	}
	if n := s.Registry().Snapshot().CounterValue("silod_sched_push_errors_total", nil); n != 0 {
		t.Errorf("%v push errors", n)
	}
}
