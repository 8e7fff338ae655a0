package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/datamgr"
	"repro/internal/policy"
	"repro/internal/simrng"
	"repro/internal/tenant"
	"repro/internal/unit"
)

// vclock is a hand-advanced clock for serving tests.
type vclock struct{ t time.Time }

func (v *vclock) now() time.Time          { return v.t }
func (v *vclock) advance(d time.Duration) { v.t = v.t.Add(d) }
func newVClock() *vclock                  { return &vclock{t: time.Unix(0, 0)} }

// newServeStack builds a virtual-clock scheduler in queued-submission
// mode over a local data plane, with three tenants spanning the SLO
// tiers.
func newServeStack(t *testing.T, cfg admission.Config) (*SchedulerServer, *vclock) {
	t.Helper()
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	mgr := datamgr.New(unit.GiB(100), unit.MBpsOf(100), 1, nil)
	vc := newVClock()
	s, err := NewSchedulerServer(core.Cluster{GPUs: 8, Cache: unit.GiB(100), RemoteIO: unit.MBpsOf(100)},
		pol, LocalDataPlane{Mgr: mgr}, vc.now)
	if err != nil {
		t.Fatal(err)
	}
	reg := tenant.NewRegistry()
	for _, tn := range []tenant.Tenant{
		{ID: "crit", Class: tenant.Critical},
		{ID: "std", Class: tenant.Standard},
		{ID: "shed", Class: tenant.Sheddable},
	} {
		if err := reg.Register(tn); err != nil {
			t.Fatal(err)
		}
	}
	s.ConfigureTenants(reg)
	q, err := admission.New(cfg, s.Registry(), simrng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	s.ConfigureAdmission(q)
	return s, vc
}

func postSubmit(t *testing.T, srv *httptest.Server, req SubmitJobRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestQueuedSubmitLifecycle(t *testing.T) {
	s, _ := newServeStack(t, admission.Config{Capacity: 16})
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp := postSubmit(t, srv, tenantSubmit("a", "std", 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit status = %d, want 202", resp.StatusCode)
	}
	// Not yet a job: the queue holds it until a round drains.
	if got := len(s.Jobs()); got != 0 {
		t.Fatalf("job admitted before any round ran (%d jobs)", got)
	}
	if err := s.RunRound(context.Background(), ServeConfig{Batch: 8}); err != nil {
		t.Fatal(err)
	}
	jobs := s.Jobs()
	if len(jobs) != 1 || jobs[0].JobID != "a" || !jobs[0].Running {
		t.Fatalf("after round: jobs = %+v, want one running job a", jobs)
	}
}

func TestQueuedSubmitShedsWith503AndRetryAfter(t *testing.T) {
	s, _ := newServeStack(t, admission.Config{Capacity: 8, HighWater: 2, StandardWater: 4})
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Two queued standard submissions reach the high-water mark; the
	// next sheddable submission is shed with an explicit 503.
	for i, id := range []string{"a", "b"} {
		if resp := postSubmit(t, srv, tenantSubmit(id, "std", 1)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status = %d, want 202", i, resp.StatusCode)
		}
	}
	resp := postSubmit(t, srv, tenantSubmit("c", "shed", 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sheddable submit at high-water status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("shed response Retry-After = %q, want a positive hint", ra)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("shed response body not a typed error: %v / %+v", err, e)
	}
	// Critical submissions still queue at this depth.
	if resp := postSubmit(t, srv, tenantSubmit("d", "crit", 1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("critical submit at high-water status = %d, want 202", resp.StatusCode)
	}
}

func TestDrainingSubmitsGet503(t *testing.T) {
	s, _ := newServeStack(t, admission.Config{Capacity: 8})
	srv := httptest.NewServer(s)
	defer srv.Close()

	s.SetDraining(true)
	resp := postSubmit(t, srv, tenantSubmit("a", "crit", 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 carries no Retry-After")
	}
	s.SetDraining(false)
	if resp := postSubmit(t, srv, tenantSubmit("a", "crit", 1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain submit status = %d, want 202", resp.StatusCode)
	}
}

// TestServeLoopInjectedTicks drives Serve with an injected tick source
// — each tick runs exactly one round; stop ends the loop.
func TestServeLoopInjectedTicks(t *testing.T) {
	s, _ := newServeStack(t, admission.Config{Capacity: 8})
	ticks := make(chan time.Time)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve(ServeConfig{Ticks: ticks, Batch: 4}, stop, nil)
	}()
	if err := s.admissionQueue().Offer(tenant.Standard, tenantSubmit("a", "std", 1)); err != nil {
		t.Fatal(err)
	}
	ticks <- time.Unix(1, 0)
	ticks <- time.Unix(2, 0) // second tick proves the first round finished
	close(stop)
	<-done
	if jobs := s.Jobs(); len(jobs) != 1 || jobs[0].JobID != "a" {
		t.Fatalf("serve loop did not drain the queue: %+v", jobs)
	}
	snap := s.Registry().Snapshot()
	if got := snap.CounterValue("silod_sched_rounds_total", nil); got < 2 {
		t.Errorf("rounds after two ticks = %v, want >= 2", got)
	}
}

// TestServeReportsEachRound: Serve hands onRound one call per tick,
// with the round's span on the injected clock and the round's error.
func TestServeReportsEachRound(t *testing.T) {
	vc := newVClock()
	s, pol, plane, _ := bookStack(t, vc.now)
	type round struct {
		dur time.Duration
		err error
	}
	got := make(chan round, 4)
	ticks := make(chan time.Time)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve(ServeConfig{Ticks: ticks}, stop, func(d time.Duration, err error) { got <- round{d, err} })
	}()

	// Each push takes 5ms of virtual time.
	plane.setHook(func(string) error { vc.advance(5 * time.Millisecond); return nil })
	pol.set(map[string]unit.Bandwidth{"a": unit.MBpsOf(80), "b": unit.MBpsOf(20)})
	ticks <- time.Unix(1, 0)
	r := <-got
	pushes := len(plane.take())
	if r.err != nil || pushes == 0 || r.dur != time.Duration(pushes)*5*time.Millisecond {
		t.Errorf("round 1: (%v, %v) after %d pushes, want (%v, nil)", r.dur, r.err, pushes, time.Duration(pushes)*5*time.Millisecond)
	}

	refused := errors.New("push refused")
	plane.setHook(func(string) error { return refused })
	pol.set(map[string]unit.Bandwidth{"a": unit.MBpsOf(20), "b": unit.MBpsOf(80)})
	ticks <- time.Unix(2, 0)
	if r := <-got; !errors.Is(r.err, refused) || r.dur != 0 {
		t.Errorf("round 2: (%v, %v), want (0s, %v)", r.dur, r.err, refused)
	}
	close(stop)
	<-done
	if n := len(got); n != 0 {
		t.Errorf("%d callbacks after two ticks, want 2", 2+n)
	}
}

// TestServeOnDemandRunsNoRound: with no Interval and no Ticks, Serve
// starts no ticker and runs no round; it only waits for stop. The wait
// outlasts a one-second default period.
func TestServeOnDemandRunsNoRound(t *testing.T) {
	s, _ := newServeStack(t, admission.Config{Capacity: 8})
	stop := make(chan struct{})
	done := make(chan struct{})
	calls := make(chan struct{}, 1)
	go func() {
		defer close(done)
		s.Serve(ServeConfig{}, stop, func(time.Duration, error) { calls <- struct{}{} })
	}()
	select {
	case <-calls:
		t.Error("on-demand Serve ran a round")
	case <-time.After(1200 * time.Millisecond):
	}
	close(stop)
	<-done
	if got := s.Registry().Snapshot().CounterValue("silod_sched_rounds_total", nil); got != 0 {
		t.Errorf("rounds = %v, want 0", got)
	}
}

// TestRoundWatchdog: rounds slower than the deadline (on the injected
// clock) increment the overrun counter; fast rounds do not.
func TestRoundWatchdog(t *testing.T) {
	s, vc := newServeStack(t, admission.Config{Capacity: 8})
	// A policy round on the virtual clock takes zero virtual time, so
	// first verify no overrun fires.
	if err := s.RunRound(context.Background(), ServeConfig{RoundDeadline: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	snap := s.Registry().Snapshot()
	if got := snap.CounterValue("silod_sched_round_overruns_total", nil); got != 0 {
		t.Fatalf("fast round counted as overrun (%v)", got)
	}
	// Wedge the clock forward mid-round via a policy that advances it.
	slow := &clockAdvancingPolicy{inner: s.policy, vc: vc, step: 10 * time.Millisecond}
	s.round.mu.Lock()
	s.round.sc.solve = core.NewRound(slow, false)
	s.round.mu.Unlock()
	if err := s.Submit(tenantSubmit("a", "std", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.RunRound(context.Background(), ServeConfig{RoundDeadline: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	snap = s.Registry().Snapshot()
	if got := snap.CounterValue("silod_sched_round_overruns_total", nil); got != 1 {
		t.Errorf("slow round overruns = %v, want 1", got)
	}
	if v, ok := snap.Get("silod_sched_last_round_seconds", nil); !ok || *v.Value < 0.009 {
		t.Errorf("last-round gauge = %+v, want >= 10ms", v)
	}
}

// clockAdvancingPolicy advances a virtual clock inside Assign, so the
// round appears slow to the watchdog without any real sleeping.
type clockAdvancingPolicy struct {
	inner core.Policy
	vc    *vclock
	step  time.Duration
}

func (p *clockAdvancingPolicy) Name() string { return p.inner.Name() }
func (p *clockAdvancingPolicy) Assign(c core.Cluster, now unit.Time, views []core.JobView) core.Assignment {
	p.vc.advance(p.step)
	return p.inner.Assign(c, now, views)
}

// TestRunRoundCancelled: a cancelled context aborts the round before
// the solve and reports a wrapped context error.
func TestRunRoundCancelled(t *testing.T) {
	s, _ := newServeStack(t, admission.Config{Capacity: 8})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.RunRound(ctx, ServeConfig{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled round error = %v, want context.Canceled", err)
	}
}
