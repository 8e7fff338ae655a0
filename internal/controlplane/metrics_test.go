package controlplane

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/datamgr"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/unit"
)

// scrape GETs base/metrics and returns the body, failing unless the
// endpoint answers 200 in the Prometheus text format.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("GET /metrics: Content-Type %q, want the Prometheus text format", ct)
	}
	return string(body)
}

// TestSchedulerMetricsEndpoint submits jobs, runs a round, checks that
// GET /metrics serves the scheduler's series over real HTTP, and reads
// their values from the registry behind it.
func TestSchedulerMetricsEndpoint(t *testing.T) {
	pol, err := policy.Build(policy.GavelKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	schedClient, _, sched, shutdown := newStack(t, pol)
	defer shutdown()

	for _, id := range []string{"a", "b", "c"} {
		if err := schedClient.SubmitJob(submitReq(id, 4, unit.GiB(10))); err != nil {
			t.Fatal(err)
		}
	}
	if err := schedClient.TriggerSchedule(); err != nil {
		t.Fatal(err)
	}

	body := scrape(t, schedClient.base)
	for _, name := range []string{"silod_sched_jobs_submitted_total", "silod_sched_rounds_total", "silod_sched_gpus_allocated"} {
		if !strings.Contains(body, "\n"+name+" ") {
			t.Errorf("GET /metrics does not name %s", name)
		}
	}
	snap := sched.Registry().Snapshot()
	if v := snap.CounterValue("silod_sched_jobs_submitted_total", nil); v != 3 {
		t.Errorf("jobs_submitted = %v, want 3", v)
	}
	if v := snap.CounterValue("silod_sched_rounds_total", nil); v < 1 {
		t.Errorf("rounds = %v, want >= 1", v)
	}
	if v := snap.CounterValue("silod_sched_gpus_allocated", nil); v <= 0 || v > 8 {
		t.Errorf("gpus_allocated = %v, want in (0, 8]", v)
	}
	run := snap.CounterValue("silod_sched_running_jobs", nil)
	que := snap.CounterValue("silod_sched_queue_depth", nil)
	if run+que != 3 {
		t.Errorf("running %v + queued %v != 3 submitted", run, que)
	}
}

// TestDataManagerMetricsEndpoint enables metrics on a manager, drives
// reads through the HTTP API, and reads the cache counters back.
func TestDataManagerMetricsEndpoint(t *testing.T) {
	mgr := datamgr.New(unit.GiB(100), unit.MBpsOf(100), 1, nil)
	reg := metrics.NewRegistry("datamgr")
	mgr.EnableMetrics(reg)
	srv := httptest.NewServer(NewDataManagerServer(mgr))
	defer srv.Close()
	c := NewClient(srv.URL)

	if err := c.RegisterDataset("ds", unit.GiB(1), 64*unit.MB); err != nil {
		t.Fatal(err)
	}
	if err := c.AttachJob("j", "ds"); err != nil {
		t.Fatal(err)
	}
	if err := c.AllocateCacheSize("ds", unit.GiB(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.AllocateRemoteIO("j", unit.MBpsOf(50)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read("j", 0); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := c.Read("j", 0); err != nil { // hit
		t.Fatal(err)
	}

	body := scrape(t, srv.URL)
	for _, line := range []string{`silod_cache_hits_total{policy="uniform"} 1`, `silod_cache_misses_total{policy="uniform"} 1`, "silod_remoteio_utilization_ratio 0.5"} {
		if !strings.Contains(body, "\n"+line+"\n") {
			t.Errorf("GET /metrics lacks %q", line)
		}
	}
	snap := reg.Snapshot()
	uniform := map[string]string{"policy": "uniform"}
	hits, misses := snap.CounterValue("silod_cache_hits_total", uniform), snap.CounterValue("silod_cache_misses_total", uniform)
	if hits != 1 || misses != 1 {
		t.Errorf("hits/misses = %v/%v, want 1/1", hits, misses)
	}
	if v := snap.CounterValue("silod_remoteio_utilization_ratio", nil); v != 0.5 {
		t.Errorf("utilization = %v, want 0.5", v)
	}
}

// TestMetricsEndpointWithoutRegistry: a manager without EnableMetrics
// serves an empty page (not an error).
func TestMetricsEndpointWithoutRegistry(t *testing.T) {
	mgr := datamgr.New(unit.GiB(1), unit.MBpsOf(10), 1, nil)
	srv := httptest.NewServer(NewDataManagerServer(mgr))
	defer srv.Close()
	if body := scrape(t, srv.URL); body != "" {
		t.Errorf("uninstrumented manager served %q", body)
	}
}
