package controlplane

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datamgr"
	"repro/internal/policy"
	"repro/internal/simrng"
	"repro/internal/unit"
)

// fakeClockStack is newStack with a controllable scheduler clock, for
// driving node-liveness expiry deterministically.
func fakeClockStack(t *testing.T, pol core.Policy, clock func() time.Time) (*Client, *SchedulerServer, func()) {
	t.Helper()
	mgr := datamgr.New(unit.GiB(100), unit.MBpsOf(100), 1, nil)
	dmSrv := httptest.NewServer(NewDataManagerServer(mgr))
	sched, err := NewSchedulerServer(core.Cluster{GPUs: 8, Cache: unit.GiB(100), RemoteIO: unit.MBpsOf(100)},
		pol, NewClient(dmSrv.URL), clock)
	if err != nil {
		t.Fatal(err)
	}
	schedSrv := httptest.NewServer(sched)
	return NewClient(schedSrv.URL), sched, func() {
		schedSrv.Close()
		dmSrv.Close()
	}
}

func runningCount(t *testing.T, c *Client) int {
	t.Helper()
	jobs, err := c.ListJobs()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, j := range jobs {
		if j.Running {
			n++
		}
	}
	return n
}

// TestNodeLivenessPreemptsAndRecovers walks the control plane through a
// node outage: heartbeating nodes carry the cluster, a silent node is
// declared dead, the next round preempts the job its capacity ran, and
// the node's return restores the full cluster.
func TestNodeLivenessPreemptsAndRecovers(t *testing.T) {
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	c, sched, stop := fakeClockStack(t, pol, clock)
	defer stop()

	beat := func(node string) {
		t.Helper()
		if err := c.doJSON("POST", "/v1/nodes/heartbeat", HeartbeatRequest{Node: node, GPUs: 4, Cache: unit.GiB(50)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	beat("n1")
	beat("n2")
	if err := c.SubmitJob(submitReq("a", 4, unit.GiB(40))); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitJob(submitReq("b", 4, unit.GiB(40))); err != nil {
		t.Fatal(err)
	}
	if err := c.TriggerSchedule(); err != nil {
		t.Fatal(err)
	}
	if got := runningCount(t, c); got != 2 {
		t.Fatalf("with both nodes live, %d jobs running, want 2", got)
	}

	// n2 goes silent past the liveness timeout; n1 keeps beating.
	advance(DefaultNodeLivenessTimeout + time.Second)
	beat("n1")
	if err := c.TriggerSchedule(); err != nil {
		t.Fatal(err)
	}
	if got := runningCount(t, c); got != 1 {
		t.Errorf("with n2 dead (4 of 8 GPUs), %d jobs running, want 1", got)
	}
	nodes, err := c.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].Node != "n1" || !nodes[0].Live || nodes[1].Node != "n2" || nodes[1].Live {
		t.Errorf("node view after outage = %+v, want live n1, dead n2", nodes)
	}

	// Everything goes silent: the round preempts all jobs and skips the
	// policy rather than solving for a zero-GPU cluster.
	advance(DefaultNodeLivenessTimeout + time.Second)
	if err := c.TriggerSchedule(); err != nil {
		t.Fatal(err)
	}
	if got := runningCount(t, c); got != 0 {
		t.Errorf("with every node dead, %d jobs running, want 0", got)
	}

	// Both nodes return; the cluster and both jobs come back.
	beat("n1")
	beat("n2")
	if err := c.TriggerSchedule(); err != nil {
		t.Fatal(err)
	}
	if got := runningCount(t, c); got != 2 {
		t.Errorf("after recovery, %d jobs running, want 2", got)
	}

	snap := sched.Registry().Snapshot()
	for name, min := range map[string]float64{
		"silod_sched_node_deaths_total":     2, // n2, then n1+n2 (n2 already dead)
		"silod_sched_node_recoveries_total": 2,
		"silod_sched_preemptions_total":     2,
		"silod_sched_heartbeats_total":      5,
	} {
		if v := snap.CounterValue(name, nil); v < min {
			t.Errorf("%s = %v, want >= %v", name, v, min)
		}
	}
	if v, ok := snap.Get("silod_sched_nodes_live", nil); !ok || *v.Value != 2 {
		t.Errorf("nodes_live gauge = %+v, want 2", v)
	}
	if v, ok := snap.Get("silod_sched_effective_gpus", nil); !ok || *v.Value != 8 {
		t.Errorf("effective_gpus gauge = %+v, want 8", v)
	}
}

// TestSubmitRequestIDDedupe: retrying a submit with the same request ID
// must not create a second job, and reusing an ID for a different job
// is an error.
func TestSubmitRequestIDDedupe(t *testing.T) {
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	schedC, _, _, stop := newStack(t, pol)
	defer stop()

	req := submitReq("a", 1, unit.GiB(40))
	req.RequestID = "req-1"
	if err := schedC.SubmitJob(req); err != nil {
		t.Fatal(err)
	}
	if err := schedC.SubmitJob(req); err != nil {
		t.Fatalf("replayed submit with same request ID = %v, want dedupe", err)
	}
	jobs, err := schedC.ListJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("replayed submit created %d jobs, want 1", len(jobs))
	}
	other := submitReq("b", 1, unit.GiB(40))
	other.RequestID = "req-1"
	if err := schedC.SubmitJob(other); err == nil || !strings.Contains(err.Error(), "already created job") {
		t.Errorf("request-ID reuse for a different job = %v, want conflict error", err)
	}
}

// TestClientRetriesTransientFailures: 5xx responses are retried with
// the same request ID (so the dedupe holds), 4xx responses are not, and
// exhausting the budget reports it.
func TestClientRetriesTransientFailures(t *testing.T) {
	var mu sync.Mutex
	var ids []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		var req SubmitJobRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Errorf("bad submit body %q: %v", body, err)
		}
		mu.Lock()
		ids = append(ids, req.RequestID)
		n := len(ids)
		mu.Unlock()
		if n < 3 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintln(w, `{"job_id":"a"}`)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.attempts, c.backoff, c.rng = 3, time.Millisecond, simrng.New(1)
	if err := c.SubmitJob(submitReq("a", 1, unit.GiB(40))); err != nil {
		t.Fatalf("submit against flaky server = %v, want success on attempt 3", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ids) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(ids))
	}
	if ids[0] == "" || ids[0] != ids[1] || ids[1] != ids[2] {
		t.Errorf("request ID not stable across retries: %q", ids)
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		attempts++
		mu.Unlock()
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprintln(w, `{"error":"no such model"}`)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.attempts, c.backoff, c.rng = 3, time.Millisecond, simrng.New(1)
	err := c.SubmitJob(submitReq("a", 1, unit.GiB(40)))
	if err == nil || !strings.Contains(err.Error(), "no such model") {
		t.Fatalf("400 submit = %v, want the server's error", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 1 {
		t.Errorf("client retried a 400 response: %d attempts, want 1", attempts)
	}
}

func TestClientRetryBudgetExhausted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.attempts, c.backoff, c.rng = 2, time.Millisecond, simrng.New(1)
	err := c.TriggerSchedule()
	if err == nil || !strings.Contains(err.Error(), "giving up after 2 attempts") {
		t.Errorf("persistent 503 = %v, want giving-up error", err)
	}
}
