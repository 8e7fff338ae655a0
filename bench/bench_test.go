package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/unit"
)

// benchmarkJSON is the driver's contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// tinyWorkloads are the five workloads shrunk in size, never in shape:
// same arms, same call mix, same rates.
func tinyWorkloads() []workloadDef {
	tinySim := func(arms []simArm) simShape {
		return simShape{jobs: 40, window: unit.Hour, cluster: fig12Cluster(32), arms: arms, refViews: 1000, kernels: 2}
	}
	churn, steady := churnShape(), steadyShape()
	churn.nodes, churn.datasets, churn.arrivals, churn.jobRounds, churn.warmup = 64, 16, 40, 4, 4
	steady.nodes, steady.datasets, steady.resident, steady.warmup = 64, 16, 300, 2
	serve := fullServe()
	serve.warmup, serve.tick, serve.hold = 100*time.Millisecond, 10*time.Millisecond, 100*time.Millisecond
	return []workloadDef{
		{name: "sim-maxmin", run: func(seed int64, lim limit, tr *tracer) (*phase, error) {
			return runSim("sim-maxmin", tinySim(maxminArms()), seed, lim, tr)
		}},
		{name: "sim-greedy", run: func(seed int64, lim limit, tr *tracer) (*phase, error) {
			return runSim("sim-greedy", tinySim(greedyArms()), seed, lim, tr)
		}},
		{name: "cp-churn", run: func(seed int64, lim limit, tr *tracer) (*phase, error) { return runCP(churn, seed, lim, tr) }},
		{name: "cp-steady", run: func(seed int64, lim limit, tr *tracer) (*phase, error) { return runCP(steady, seed, lim, tr) }},
		{name: "serve-http", run: func(seed int64, lim limit, tr *tracer) (*phase, error) { return runServe(serve, seed, lim, tr) }},
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// and checks that the driver's line parses and names exactly the
// metrics BENCHMARK.json lists, that every correctness check passes,
// that the span file is written, and that nothing is left running.
func TestSmoke(t *testing.T) {
	doc := readBenchmarkJSON(t)
	want := map[int][]jsonMetric{0: doc.EndToEnd, 1: doc.PerLayer}
	goroutines := runtime.NumGoroutine()
	dir := t.TempDir()
	for _, def := range tinyWorkloads() {
		for trace := 0; trace <= 1; trace++ {
			o := options{seed: 7, seconds: 0.3, trace: trace, outDir: dir, probe: time.Millisecond}
			res, err := execute(def, o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", def.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d: %v",
					def.name, trace, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			var out bytes.Buffer
			if err := emit(&out, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", def.name, trace, err)
			}
			if last.Correct == nil || last.Attempted == nil || last.Failed == nil {
				t.Errorf("%s trace=%d: last line lacks a key: %s", def.name, trace, lines[len(lines)-1])
			}
			if len(last.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json lists %d", def.name, trace, len(last.Metrics), len(want[trace]))
			}
			for _, m := range want[trace] {
				got, ok := last.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s trace=%d: metric %s missing", def.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%d: %s has unit %q, BENCHMARK.json says %q", def.name, trace, m.Name, got.Unit, m.Unit)
				case trace == 0 && !(*got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.name, m.Name, *got.Value)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(dir, "trace-"+def.name+".json")); err != nil {
					t.Errorf("%s: span file: %v", def.name, err)
				}
			}
		}
	}
	// Stopped goroutines (HTTP keep-alive readers, timers) take a
	// moment to unwind.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after:\n%s", goroutines, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTablesMatchBenchmarkJSON pins BENCHMARK.json to the tables the
// program reports from: same workloads, metrics, units and bounds.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		json []jsonMetric
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if d := c.defs[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", c.kind, i, m, d)
			}
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !bytes.Contains(readme, []byte("`"+d.Name+"`")) {
			t.Errorf("README.md does not define metric %s", d.Name)
		}
	}
}

// TestQuartileSpread checks the spread arithmetic against Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartileSpread(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("one value has spread %v, want 0", got)
	}
}

// TestCheckSpans feeds checkSpans one sound trace and the three ways a
// trace can be broken.
func TestCheckSpans(t *testing.T) {
	good := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 45, End: 60, Parent: 0},
		{Name: "leaf", Start: 12, End: 20, Parent: 1},
	}
	if err := checkSpans(good); err != nil {
		t.Errorf("sound trace rejected: %v", err)
	}
	if self := selfTimes(good); self[0] != 55e-9 || self[1] != 22e-9 {
		t.Errorf("self times %v, want root 55ns and a 22ns", self)
	}
	overlap := append([]span(nil), good...)
	overlap[2].Start = 30 // b now overlaps a: the root counts the shared 10ns once
	if self := selfTimes(overlap); self[0] != 50e-9 {
		t.Errorf("root self time %v with overlapping children, want 50ns", self[0])
	}
	open := append([]span(nil), good...)
	open[3].End = 0
	orphan := append([]span(nil), good...)
	orphan[1].Parent = 7
	twoRoots := append(append([]span(nil), good...), span{Name: "stray", Start: 0, End: 5, Parent: -1})
	for name, bad := range map[string][]span{
		"open span": open, "unresolved parent": orphan, "two roots": twoRoots, "overlapping siblings": overlap,
	} {
		if checkSpans(bad) == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestCompare runs -compare on two result sets: b is 30 % slower on one
// metric and loses a bit of a simulated number.
func TestCompare(t *testing.T) {
	write := func(name string, scale, jct float64) string {
		path := filepath.Join(t.TempDir(), name)
		for seed := int64(1); seed <= 4; seed++ {
			plain := &result{Workload: "sim-maxmin", Seed: seed, Correct: true, Attempted: 4, Metrics: map[string]metricOut{}}
			for _, d := range endToEnd {
				plain.Metrics[d.Name] = metricOut{Value: 100 + float64(seed), Unit: d.Unit}
			}
			plain.Metrics["op_p50_ms"] = metricOut{Value: (100 + float64(seed)) * scale, Unit: "ms"}
			traced := &result{Workload: "sim-maxmin", Trace: 1, Seed: seed, Correct: true, Metrics: map[string]metricOut{
				"sim.avg_jct_min": {Value: jct}, "sim.makespan_min": {Value: 5}, "sim.events": {Value: 9},
			}}
			for _, r := range []*result{plain, traced} {
				if err := appendResult(path, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	a := write("a.jsonl", 1, 459.25)
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, a, write("same.jsonl", 1, 459.25)); err != nil || regressed {
		t.Errorf("identical sets: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	regressed, err := compareFiles(&out, a, write("b.jsonl", 1.3, math.Nextafter(459.25, 500)))
	if err != nil || !regressed {
		t.Fatalf("slower set: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	var flagged []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "REGRESSION") {
			flagged = append(flagged, strings.Fields(line)[1])
		}
	}
	sort.Strings(flagged)
	if got := strings.Join(flagged, ","); got != "op_p50_ms,sim.avg_jct_min,sim.avg_jct_min,sim.avg_jct_min,sim.avg_jct_min" {
		t.Errorf("flagged %q\n%s", got, out.String())
	}
}

// TestTracedPolicyForwards checks the wrapper answers the optional
// capabilities exactly as the policy it wraps, so the engines' memo
// sees no difference.
func TestTracedPolicyForwards(t *testing.T) {
	for _, arm := range append(maxminArms(), greedyArms()...) {
		bare, err := policy.Build(arm.kind, arm.system, 3)
		if err != nil {
			t.Fatal(err)
		}
		_, wrapped := wrapPolicy(bare, newTracer(), -1, -1)
		pure, _ := bare.(core.PureAssigner)
		if wrapped.PureAssign() != pure.PureAssign() || wrapped.IgnoredViewFields() != core.PolicyIgnoredFields(bare) {
			t.Errorf("%s: wrapper reports pure=%v mask=%b, policy pure=%v mask=%b", arm.name(),
				wrapped.PureAssign(), wrapped.IgnoredViewFields(), pure.PureAssign(), core.PolicyIgnoredFields(bare))
		}
	}
	pol, wrapped := wrapPolicy(stubPolicy{}, newTracer(), -1, -1)
	if wrapped.PureAssign() || wrapped.IgnoredViewFields() != 0 || pol.Name() != "stub" {
		t.Errorf("a policy with no capabilities must wrap to an impure one with an empty mask")
	}
	wrapped.SetFullResolve(true) // must not panic without a FullResolver inside
}

type stubPolicy struct{}

func (stubPolicy) Name() string { return "stub" }
func (stubPolicy) Assign(core.Cluster, unit.Time, []core.JobView) core.Assignment {
	return core.NewAssignment()
}
