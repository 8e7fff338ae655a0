package faults

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/unit"
)

func testCluster() core.Cluster {
	return core.Cluster{GPUs: 8, Cache: unit.TiB(2), RemoteIO: unit.MBpsOf(200)}
}

// TestScheduleGoldenRoundTrip pins the -faults JSON schema: the
// testdata schedule must parse, validate against a reference cluster,
// and re-marshal byte-identically. Any field rename or encoding change
// shows up as a diff here before it breaks users' schedule files.
func TestScheduleGoldenRoundTrip(t *testing.T) {
	golden := filepath.Join("testdata", "schedule.json")
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(data)
	if err != nil {
		t.Fatalf("golden schedule does not parse: %v", err)
	}
	if len(s.Events) != 7 {
		t.Fatalf("parsed %d events, want 7", len(s.Events))
	}
	if err := s.Validate(testCluster()); err != nil {
		t.Fatalf("golden schedule invalid against reference cluster: %v", err)
	}
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if out = append(out, '\n'); !bytes.Equal(out, data) {
		t.Errorf("schedule did not round-trip; schema drifted\n got:\n%s\nwant:\n%s", out, data)
	}
}

func TestParseRejectsBadSchedules(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"unknown field", `{"events":[{"at_seconds":1,"kind":"gpu_loss","gpus":1,"bogus":2}]}`, "bogus"},
		{"unknown kind", `{"events":[{"at_seconds":1,"kind":"meteor"}]}`, "unknown kind"},
		{"missing payload", `{"events":[{"at_seconds":1,"kind":"gpu_loss"}]}`, "needs gpus > 0"},
		{"wrong payload", `{"events":[{"at_seconds":1,"kind":"gpu_loss","gpus":1,"cache_bytes":5}]}`, "must not set cache_bytes"},
		{"negative time", `{"events":[{"at_seconds":-1,"kind":"gpu_loss","gpus":1}]}`, "negative time"},
		{"crash without job", `{"events":[{"at_seconds":1,"kind":"job_crash"}]}`, "needs a job ID"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Parse(%s) error = %v, want mention of %q", tc.in, err, tc.want)
			}
		})
	}
}

func TestScheduleValidateFeasibility(t *testing.T) {
	cl := testCluster()
	cases := []struct {
		name string
		s    Schedule
		want string
	}{
		{"gpu loss to zero", Schedule{Events: []Event{
			{At: 1, Kind: KindGPULoss, GPUs: 8},
		}}, "at least 1 must survive"},
		{"restore exceeds loss", Schedule{Events: []Event{
			{At: 1, Kind: KindGPULoss, GPUs: 2},
			{At: 2, Kind: KindGPURestore, GPUs: 3},
		}}, "restores more than the outstanding loss"},
		{"cache overdrawn", Schedule{Events: []Event{
			{At: 1, Kind: KindCacheLoss, Cache: unit.TiB(3)},
		}}, "more cache than the cluster has"},
		{"io exhausted", Schedule{Events: []Event{
			{At: 1, Kind: KindIOLoss, RemoteIO: unit.MBpsOf(200)},
		}}, "no egress bandwidth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate(cl)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate error = %v, want mention of %q", err, tc.want)
			}
		})
	}
	var nilSched *Schedule
	if err := nilSched.Validate(cl); err != nil {
		t.Errorf("nil schedule Validate = %v, want nil", err)
	}
}

// TestJobCrashHasNoCapacityEffect pins the explicit no-op cases in
// Schedule.Validate and Injector.Next: a crash event validates against
// any cluster (it preempts one job, the cluster keeps its GPUs) and is
// delivered to the engine without touching effective capacity.
func TestJobCrashHasNoCapacityEffect(t *testing.T) {
	cl := testCluster()
	s := &Schedule{Events: []Event{{At: 10, Kind: KindJobCrash, Job: "j1"}}}
	if err := s.Validate(cl); err != nil {
		t.Fatalf("Validate = %v, want nil: crashes have no capacity effect", err)
	}
	in, err := NewInjector(cl, s, metrics.NewRegistry("test"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ev, ok := in.Next(10)
	if !ok || ev.Kind != KindJobCrash || ev.Job != "j1" {
		t.Fatalf("Next(10) = %+v,%v, want the j1 crash", ev, ok)
	}
	if got := in.Effective(); got != cl {
		t.Errorf("crash changed effective capacity: %+v, want %+v", got, cl)
	}
	if in.timeDegraded != 0 {
		t.Errorf("crash accrued degraded time %v, want 0", in.timeDegraded)
	}
}

// TestInjectorReplay drives the injector through loss and recovery and
// checks the effective-capacity view, degraded-time accounting, and
// event ordering.
func TestInjectorReplay(t *testing.T) {
	cl := testCluster()
	s := &Schedule{Events: []Event{
		{At: 200, Kind: KindGPURestore, GPUs: 2}, // out of order on purpose
		{At: 100, Kind: KindGPULoss, GPUs: 2},
		{At: 150, Kind: KindCacheLoss, Cache: unit.TiB(1)},
		{At: 300, Kind: KindCacheRestore, Cache: unit.TiB(1)},
	}}
	reg := metrics.NewRegistry("test")
	in, err := NewInjector(cl, s, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Effective(); got != cl {
		t.Fatalf("initial Effective = %+v, want base %+v", got, cl)
	}
	if at, ok := in.NextAt(); !ok || at != 100 {
		t.Fatalf("NextAt = %v,%v, want 100,true", at, ok)
	}
	// Nothing due before t=100.
	if _, ok := in.Next(50); ok {
		t.Fatal("Next(50) popped an event before its time")
	}
	// Drain everything due by t=250: loss at 100, cache loss at 150,
	// restore at 200 — in time order despite the input order.
	var kinds []Kind
	for {
		ev, ok := in.Next(250)
		if !ok {
			break
		}
		kinds = append(kinds, ev.Kind)
	}
	want := []Kind{KindGPULoss, KindCacheLoss, KindGPURestore}
	if len(kinds) != len(want) {
		t.Fatalf("popped %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("popped %v, want %v", kinds, want)
		}
	}
	eff := in.Effective()
	if eff.GPUs != cl.GPUs || eff.Cache != cl.Cache-unit.TiB(1) {
		t.Errorf("Effective after replay = %+v", eff)
	}
	if !in.Degraded() {
		t.Error("cache still lost but Degraded() = false")
	}
	if _, ok := in.Next(250); ok {
		t.Error("Next popped past the last due event")
	}
	// Degraded accounting: capacity was lost from t=100 continuously
	// (GPU until 200, cache from 150 until the restore at 300).
	if _, ok := in.Next(400); !ok {
		t.Fatal("cache restore at 300 not popped")
	}
	in.Finish(400)
	if got := in.timeDegraded; got != unit.Duration(200) {
		t.Errorf("timeDegraded = %v, want 200s", got)
	}
	if in.Degraded() {
		t.Error("fully restored but Degraded() = true")
	}
	if v, ok := reg.Snapshot().Get("silod_faults_time_degraded_seconds", nil); !ok || *v.Value != 200 {
		t.Errorf("time-degraded gauge = %+v, want 200", v)
	}
}

// TestInjectorMetricsShapeIsScheduleIndependent: the snapshot must
// carry the same series whether or not any fault fires, so seeded runs
// stay byte-identical regardless of schedule content.
func TestInjectorMetricsShapeIsScheduleIndependent(t *testing.T) {
	shape := func(s *Schedule) []string {
		reg := metrics.NewRegistry("test")
		if _, err := NewInjector(testCluster(), s, reg, nil); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		names := make([]string, 0, len(snap.Metrics))
		for _, m := range snap.Metrics {
			names = append(names, m.Name+"|"+m.Labels["kind"])
		}
		return names
	}
	empty := shape(nil)
	full := shape(&Schedule{Events: []Event{{At: 1, Kind: KindGPULoss, GPUs: 1}}})
	if len(empty) == 0 {
		t.Fatal("no fault metrics interned")
	}
	if len(empty) != len(full) {
		t.Fatalf("metric shape depends on schedule: %d vs %d series", len(empty), len(full))
	}
	for i := range empty {
		if empty[i] != full[i] {
			t.Errorf("series %d differs: %q vs %q", i, empty[i], full[i])
		}
	}
}
