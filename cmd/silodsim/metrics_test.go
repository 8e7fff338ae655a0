package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/unit"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// writeTestTrace generates a deterministic 5-job trace file.
func writeTestTrace(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "trace.jsonl")
	jobs, err := workload.Generate(workload.DefaultTraceConfig(5, 12, unit.Hour))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteTrace(f, jobs); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

// snapshotShape reduces a snapshot to its schema — metric names, types,
// label keys, bucket counts — the part that must stay stable for
// downstream dashboards even as values change run to run.
func snapshotShape(s metrics.Snapshot) string {
	var b strings.Builder
	for _, m := range s.Metrics {
		keys := make([]string, 0, len(m.Labels))
		for k := range m.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "%s %s labels=[%s] buckets=%d\n",
			m.Name, m.Type, strings.Join(keys, ","), len(m.Buckets))
	}
	return b.String()
}

// TestTraceModeMetricsDump runs -metrics end to end and checks the JSON
// artifact: nonzero cache hit/miss byte counters, a remote-IO
// utilization gauge, a JCT histogram that agrees with the report table,
// a per-job event timeline, and a schema matching the golden file.
func TestTraceModeMetricsDump(t *testing.T) {
	dir := t.TempDir()
	trace := writeTestTrace(t, dir)
	outPath := filepath.Join(dir, "metrics.json")
	out := capture(t, "-trace", trace, "-scheduler", "SJF", "-system", "SiloD",
		"-gpus", "16", "-cache", "4TB", "-remote", "400MB", "-metrics", outPath)
	if !strings.Contains(out, "metrics snapshot written") {
		t.Fatalf("missing confirmation line:\n%s", out)
	}

	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var d metricsDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}

	if d.Summary.Scheduler != "SJF" || d.Summary.System != "SiloD" || d.Summary.Jobs <= 0 {
		t.Errorf("summary = %+v, want SJF/SiloD with jobs > 0", d.Summary)
	}

	// The run must have exercised the cache both ways.
	hit := d.Snapshot.CounterValue("silod_sim_cache_hit_bytes_total", nil)
	miss := d.Snapshot.CounterValue("silod_sim_cache_miss_bytes_total", nil)
	if hit <= 0 || miss <= 0 {
		t.Errorf("cache hit/miss bytes = %v/%v, want both > 0", hit, miss)
	}

	// Remote-IO utilization is exported and sane.
	util, ok := d.Snapshot.Get("silod_sim_remoteio_utilization_ratio", nil)
	if !ok {
		t.Fatal("silod_sim_remoteio_utilization_ratio missing from snapshot")
	}
	if v := *util.Value; v < 0 || v > 1 {
		t.Errorf("utilization = %v, want in [0, 1]", v)
	}

	// The JCT histogram must agree with the report table's avg JCT.
	jct, ok := d.Snapshot.Get("silod_sim_jct_minutes", nil)
	if !ok {
		t.Fatal("silod_sim_jct_minutes missing from snapshot")
	}
	if jct.Count != int64(d.Summary.Jobs) {
		t.Errorf("jct count = %d, want %d", jct.Count, d.Summary.Jobs)
	}
	avg := jct.Sum / float64(jct.Count)
	if math.Abs(avg-d.Summary.AvgJCTMin) > 1e-6*math.Abs(avg)+1e-9 {
		t.Errorf("histogram avg %v != summary avg %v", avg, d.Summary.AvgJCTMin)
	}
	if want := fmt.Sprintf("%.1f min", avg); !strings.Contains(out, want) {
		t.Errorf("report table does not quote histogram avg %q:\n%s", want, out)
	}

	// Timeline carries one submit and one complete per job.
	kinds := map[metrics.EventKind]int{}
	for _, e := range d.Timeline {
		kinds[e.Kind]++
	}
	if kinds[metrics.EventSubmit] != d.Summary.Jobs || kinds[metrics.EventComplete] != d.Summary.Jobs {
		t.Errorf("timeline submit/complete = %d/%d, want %d each",
			kinds[metrics.EventSubmit], kinds[metrics.EventComplete], d.Summary.Jobs)
	}

	// Schema golden: names, types, label keys, bucket counts.
	got := snapshotShape(d.Snapshot)
	golden := filepath.Join("testdata", "metrics_shape.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("snapshot schema drifted from golden (run with -update if intended)\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestTraceModeWithoutMetricsFlagWritesNothing: the flag is opt-in.
func TestTraceModeWithoutMetricsFlagWritesNothing(t *testing.T) {
	dir := t.TempDir()
	trace := writeTestTrace(t, dir)
	out := capture(t, "-trace", trace, "-gpus", "16", "-cache", "4TB", "-remote", "400MB")
	if strings.Contains(out, "metrics snapshot") {
		t.Errorf("unexpected metrics output:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "metrics.json")); !os.IsNotExist(err) {
		t.Errorf("metrics.json written without -metrics flag")
	}
}

// TestMetricsDumpCountsDroppedTimelineEvents: a timeline that saw more
// events than its limit says so in the dump summary and on stderr; one
// that did not leaves the summary's JSON as it was.
func TestMetricsDumpCountsDroppedTimelineEvents(t *testing.T) {
	tl := metrics.NewTimeline(3)
	for i := 0; i < 5; i++ {
		tl.RecordAt(float64(i), metrics.EventSubmit, fmt.Sprintf("j%d", i), 0, "")
	}
	var warn bytes.Buffer
	d := newMetricsDump(dumpSummary{Jobs: 5}, nil, tl, &warn)
	if d.Summary.TimelineDropped != 2 || len(d.Timeline) != 3 {
		t.Errorf("summary drops %d with %d events kept, want 2 and 3", d.Summary.TimelineDropped, len(d.Timeline))
	}
	if got, want := warn.String(), "silodsim: timeline full: kept the first 3 events, dropped 2\n"; got != want {
		t.Errorf("stderr = %q, want %q", got, want)
	}
	out, err := json.Marshal(d.Summary)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out, []byte(`"timeline_dropped":2`)) {
		t.Errorf("summary JSON %s lacks timeline_dropped", out)
	}

	warn.Reset()
	d = newMetricsDump(dumpSummary{Jobs: 5}, nil, metrics.NewTimeline(8), &warn)
	if out, _ := json.Marshal(d.Summary); bytes.Contains(out, []byte("timeline_dropped")) || warn.Len() != 0 {
		t.Errorf("a timeline under its limit reported drops: %s, stderr %q", out, warn.String())
	}
}
