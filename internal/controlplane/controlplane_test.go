package controlplane

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datamgr"
	"repro/internal/policy"
	"repro/internal/unit"
)

// newStack spins up a data manager service and a scheduler driving it
// over real HTTP.
func newStack(t *testing.T, pol core.Policy) (*Client, *Client, *SchedulerServer, func()) {
	t.Helper()
	mgr := datamgr.New(unit.GiB(100), unit.MBpsOf(100), 1, nil)
	dmSrv := httptest.NewServer(NewDataManagerServer(mgr))
	dmClient := NewClient(dmSrv.URL)
	sched, err := NewSchedulerServer(core.Cluster{GPUs: 8, Cache: unit.GiB(100), RemoteIO: unit.MBpsOf(100)}, pol, dmClient, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	schedSrv := httptest.NewServer(sched)
	return NewClient(schedSrv.URL), dmClient, sched, func() {
		schedSrv.Close()
		dmSrv.Close()
	}
}

func submitReq(id string, gpus int, dsSize unit.Bytes) SubmitJobRequest {
	return SubmitJobRequest{
		JobID:           id,
		Model:           "ResNet-50",
		Dataset:         "ds-" + id,
		DatasetSize:     dsSize,
		NumGPUs:         gpus,
		IdealThroughput: unit.MBpsOf(114),
		TotalBytes:      10 * dsSize,
	}
}

func TestEndToEndScheduleAndAllocate(t *testing.T) {
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	schedC, dmC, _, stop := newStack(t, pol)
	defer stop()

	if err := schedC.SubmitJob(submitReq("a", 1, unit.GiB(40))); err != nil {
		t.Fatal(err)
	}
	if err := schedC.SubmitJob(submitReq("b", 1, unit.GiB(80))); err != nil {
		t.Fatal(err)
	}
	if err := schedC.TriggerSchedule(); err != nil {
		t.Fatal(err)
	}
	jobs, err := schedC.ListJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("got %d jobs, want 2", len(jobs))
	}
	for _, j := range jobs {
		if !j.Running || j.GPUs != 1 {
			t.Errorf("job %s not running with 1 GPU: %+v", j.JobID, j)
		}
	}
	// The greedy allocator must have cached the more efficient (smaller)
	// dataset fully.
	st, err := dmC.Stats("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Dataset != "ds-a" {
		t.Fatalf("job a attached to %q", st.Dataset)
	}
	// Reads flow through the data manager and count hits/misses.
	if err := dmC.EpochStart("a"); err != nil {
		t.Fatal(err)
	}
	r0, err := dmC.Read("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Hit {
		t.Error("first read of block 0 hit an empty cache")
	}
	r1, err := dmC.Read("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Hit {
		t.Error("second read of block 0 missed despite quota (40GiB dataset, full quota expected)")
	}
}

// TestCrashRecoveryFromAnnotations is the paper's recovery story end to
// end (§6 fault tolerance): the data manager crashes, and a fresh one is
// rebuilt from nothing but the scheduler's persisted annotations —
// fetched over the wire and replayed through /v1/restore — then keeps
// taking the scheduler's rounds.
func TestCrashRecoveryFromAnnotations(t *testing.T) {
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The data manager's address outlives the manager behind it.
	var dm atomic.Pointer[DataManagerServer]
	dm.Store(NewDataManagerServer(datamgr.New(unit.GiB(100), unit.MBpsOf(100), 1, nil)))
	dmSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dm.Load().ServeHTTP(w, r)
	}))
	defer dmSrv.Close()
	dmC := NewClient(dmSrv.URL)
	sched, err := NewSchedulerServer(core.Cluster{GPUs: 8, Cache: unit.GiB(100), RemoteIO: unit.MBpsOf(100)}, pol, dmC, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	schedSrv := httptest.NewServer(sched)
	defer schedSrv.Close()
	schedC := NewClient(schedSrv.URL)

	shared := submitReq("b", 1, unit.GiB(50))
	shared.Dataset = "ds-a"
	for _, req := range []SubmitJobRequest{submitReq("a", 2, unit.GiB(50)), shared, submitReq("c", 1, unit.GiB(80))} {
		if err := schedC.SubmitJob(req); err != nil {
			t.Fatal(err)
		}
	}
	if err := schedC.TriggerSchedule(); err != nil {
		t.Fatal(err)
	}
	ann, err := schedC.Annotations()
	if err != nil {
		t.Fatal(err)
	}
	if ann.Jobs["a"] != "ds-a" || ann.Jobs["b"] != "ds-a" || ann.Jobs["c"] != "ds-c" {
		t.Fatalf("annotations lost a job binding: %+v", ann)
	}
	if ann.Quotas["ds-a"] <= 0 {
		t.Fatalf("annotations missing cache quota: %+v", ann)
	}

	// Crash: every allocation the old manager held is gone. The fresh
	// one sees the annotations and nothing else.
	fresh := datamgr.New(unit.GiB(100), unit.MBpsOf(100), 2, nil)
	dm.Store(NewDataManagerServer(fresh))
	if err := dmC.Restore(ann); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for _, j := range sched.Jobs() {
			st, err := fresh.Stats(j.JobID)
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			if st.Dataset != j.Dataset || st.RemoteIO != j.RemoteIO {
				t.Errorf("%s: job %s holds %s at %v, scheduler decided %s at %v",
					when, j.JobID, st.Dataset, st.RemoteIO, j.Dataset, j.RemoteIO)
			}
			if got := fresh.Quota(j.Dataset); got != j.CacheQuota {
				t.Errorf("%s: dataset %s quota %v, scheduler decided %v", when, j.Dataset, got, j.CacheQuota)
			}
		}
	}
	check("after restore")
	if err := schedC.TriggerSchedule(); err != nil {
		t.Fatalf("round against the restored data manager: %v", err)
	}
	check("after the next round")
	if n := sched.Registry().Snapshot().CounterValue("silod_sched_push_errors_total", nil); n != 0 {
		t.Errorf("%v push errors against the restored data manager", n)
	}
}

func TestSubmitValidation(t *testing.T) {
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	schedC, _, _, stop := newStack(t, pol)
	defer stop()
	bad := []SubmitJobRequest{
		{},                                     // empty
		submitReq("x", 0, unit.GiB(1)),         // zero GPUs
		submitReq("y", 99, unit.GiB(1)),        // too many GPUs
		{JobID: "z", Dataset: "d", NumGPUs: 1}, // no profile
	}
	for i, req := range bad {
		if err := schedC.SubmitJob(req); err == nil {
			t.Errorf("bad submit %d accepted", i)
		}
	}
	// Duplicate submission rejected.
	if err := schedC.SubmitJob(submitReq("a", 1, unit.GiB(10))); err != nil {
		t.Fatal(err)
	}
	if err := schedC.SubmitJob(submitReq("a", 1, unit.GiB(10))); err == nil {
		t.Error("duplicate submit accepted")
	}
}

func TestProgressDrivesCompletion(t *testing.T) {
	pol, err := policy.Build(policy.SJFKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	schedC, _, _, stop := newStack(t, pol)
	defer stop()
	req := submitReq("a", 1, unit.GiB(10))
	if err := schedC.SubmitJob(req); err != nil {
		t.Fatal(err)
	}
	if err := schedC.TriggerSchedule(); err != nil {
		t.Fatal(err)
	}
	if err := schedC.ReportProgress(ProgressRequest{
		JobID: "a", AttainedBytes: req.TotalBytes, Done: true,
	}); err != nil {
		t.Fatal(err)
	}
	jobs, err := schedC.ListJobs()
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].Done || jobs[0].Running {
		t.Errorf("job not marked done: %+v", jobs[0])
	}
	// Progress for unknown jobs is rejected.
	if err := schedC.ReportProgress(ProgressRequest{JobID: "nope"}); err == nil {
		t.Error("progress for unknown job accepted")
	}
}

// TestProgressRejectsNegativeReports pins the decode-path hardening: a
// negative counter must never reach the job record, where it would
// inflate RemainingBytes (TotalBytes - attained) on every later
// scheduling round.
func TestProgressRejectsNegativeReports(t *testing.T) {
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	schedC, dmC, _, stop := newStack(t, pol)
	defer stop()
	req := submitReq("a", 1, unit.GiB(10))
	if err := schedC.SubmitJob(req); err != nil {
		t.Fatal(err)
	}
	bad := []ProgressRequest{
		{JobID: "a", AttainedBytes: -unit.GiB(1)},
		{JobID: "a", EffectiveCache: -unit.GiB(1)},
		{JobID: "a", CachedBytes: -unit.GiB(1)},
		{AttainedBytes: unit.GiB(1)}, // no job_id
	}
	for i, pr := range bad {
		if err := schedC.ReportProgress(pr); err == nil {
			t.Errorf("bad progress report %d accepted", i)
		}
	}
	jobs, err := schedC.ListJobs()
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].AttainedBytes != 0 || jobs[0].RemainingBytes != req.TotalBytes {
		t.Errorf("rejected report mutated the job record: attained %v, remaining %v (want 0, %v)",
			jobs[0].AttainedBytes, jobs[0].RemainingBytes, req.TotalBytes)
	}
	// The data manager's read path rejects negative blocks the same way
	// (submit already registered ds-a and attached job a).
	if _, err := dmC.Read("a", -1); err == nil {
		t.Error("negative block read accepted")
	}
}

// TestServeSchedulesPeriodically polls the observable it asserts — the
// quota landing at the data plane. A round marks the job Running under
// the scheduler lock and pushes after unlocking, so a poll on
// Jobs()[0].Running can win the race against the push it then checks.
func TestServeSchedulesPeriodically(t *testing.T) {
	pol, err := policy.Build(policy.GavelKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	mgr := datamgr.New(unit.GiB(100), unit.MBpsOf(100), 1, nil)
	sched, err := NewSchedulerServer(core.Cluster{GPUs: 4, Cache: unit.GiB(100), RemoteIO: unit.MBpsOf(100)},
		pol, LocalDataPlane{Mgr: mgr}, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Submit(submitReq("a", 1, unit.GiB(20))); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		sched.Serve(ServeConfig{Interval: 5 * time.Millisecond}, stop, nil)
	}()
	deadline := time.After(2 * time.Second)
	for mgr.Quota("ds-a") <= 0 {
		select {
		case <-deadline:
			close(stop)
			t.Fatal("Serve never pushed the job's quota to the data plane")
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	<-served
	// Running is set before the push, so it must hold once the push landed.
	if jobs := sched.Jobs(); len(jobs) != 1 || !jobs[0].Running {
		t.Errorf("quota pushed for a job not marked running: %+v", jobs)
	}
}

func TestScheduleSurfacesDataPlaneFailure(t *testing.T) {
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Point the scheduler at a dead data manager.
	dead := NewClient("http://127.0.0.1:1") // nothing listens here
	sched, err := NewSchedulerServer(core.Cluster{GPUs: 4, Cache: unit.GiB(100), RemoteIO: unit.MBpsOf(100)},
		pol, dead, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Submit(submitReq("a", 1, unit.GiB(20))); err == nil {
		t.Fatal("submit should fail when the data plane is unreachable")
	}
}

func TestAPIJSONRoundTrip(t *testing.T) {
	// The wire types must round-trip through JSON without loss; a field
	// rename would silently break mixed-version deployments.
	snap := Annotations{
		Quotas:   map[string]unit.Bytes{"ds": unit.GiB(10)},
		RemoteIO: map[string]unit.Bandwidth{"j": unit.MBpsOf(50)},
		Jobs:     map[string]string{"j": "ds"},
		Datasets: map[string]datamgr.DatasetGeom{"ds": {Size: unit.GiB(10), BlockSize: 64 * unit.MB}},
	}
	buf, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Annotations
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, snap) {
		t.Errorf("round trip lost data: %+v", back)
	}
	for _, key := range []string{"quotas", "remote_io", "jobs", "datasets"} {
		if !strings.Contains(string(buf), `"`+key+`"`) {
			t.Errorf("wire format missing %q: %s", key, buf)
		}
	}
}
