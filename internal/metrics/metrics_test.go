package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestNilHandlesNoOp(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tl *Timeline
	var r *Registry
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	tl.RecordAt(0, EventSubmit, "j", 0, "")
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || len(tl.Events()) != 0 || tl.Dropped() != 0 {
		t.Error("nil handles must read as zero")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Error("nil registry must return nil handles")
	}
	if s := r.Snapshot(); len(s.Metrics) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}
}

func TestCounterSemantics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-7) // counters only go up
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(-1.0)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 2, 7, 100} {
		h.Observe(v)
	}
	cum := h.cumulative()
	// le=1: {0.5, 1}; le=5: +{2}; le=10: +{7}; +Inf: +{100}.
	want := []int64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("bucket %d = %d, want %d (all %v)", i, cum[i], w, cum)
		}
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+2+7+100; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	if ExpBuckets(0, 2, 3) != nil || ExpBuckets(1, 1, 3) != nil {
		t.Error("degenerate bucket specs must return nil")
	}
}

func TestRegistryInterning(t *testing.T) {
	r := NewRegistry("test")
	a := r.Counter("hits", L("policy", "lru"))
	b := r.Counter("hits", L("policy", "lru"))
	if a != b {
		t.Error("same name+labels must intern to the same handle")
	}
	c := r.Counter("hits", L("policy", "quota"))
	if a == c {
		t.Error("different labels must be distinct series")
	}
	a.Add(3)
	c.Add(1)
	snap := r.Snapshot()
	if got := snap.CounterValue("hits", map[string]string{"policy": "lru"}); got != 3 {
		t.Errorf("lru hits = %v, want 3", got)
	}
	if got := snap.CounterValue("hits", map[string]string{"policy": "quota"}); got != 1 {
		t.Errorf("quota hits = %v, want 1", got)
	}
}

func TestRegistryLabelOrderIrrelevant(t *testing.T) {
	r := NewRegistry("test")
	a := r.Gauge("g", L("a", "1"), L("b", "2"))
	b := r.Gauge("g", L("b", "2"), L("a", "1"))
	if a != b {
		t.Error("label order must not create distinct series")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry("test")
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("m")
}

func TestHistogramBoundsMismatchPanics(t *testing.T) {
	r := NewRegistry("test")
	r.Histogram("h", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Error("re-registering a histogram with different bounds must panic")
		}
	}()
	r.Histogram("h", []float64{1, 3})
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry("test")
	r.Counter("zzz")
	r.Counter("aaa", L("x", "2"))
	r.Counter("aaa", L("x", "1"))
	s1 := r.Snapshot()
	s2 := r.Snapshot()
	if len(s1.Metrics) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", len(s1.Metrics))
	}
	if s1.Metrics[0].Name != "aaa" || s1.Metrics[2].Name != "zzz" {
		t.Errorf("metrics not name-sorted: %+v", s1.Metrics)
	}
	for i := range s1.Metrics {
		if s1.Metrics[i].Name != s2.Metrics[i].Name ||
			s1.Metrics[i].Labels["x"] != s2.Metrics[i].Labels["x"] {
			t.Error("snapshot order not deterministic")
		}
	}
}

// TestConcurrentRegistryAndHandles exercises the registry and every
// primitive from many goroutines; run with -race (the Makefile's verify
// target does).
func TestConcurrentRegistryAndHandles(t *testing.T) {
	r := NewRegistry("race")
	tl := NewTimeline(0)
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Interleave interning with updates: half the workers share
			// label "a", the rest "b", so interning races are exercised.
			label := "a"
			if w%2 == 1 {
				label = "b"
			}
			c := r.Counter("ops_total", L("w", label))
			g := r.Gauge("level", L("w", label))
			h := r.Histogram("lat", []float64{1, 10, 100}, L("w", label))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 128))
				if i%100 == 0 {
					_ = r.Snapshot() // concurrent readers
				}
				tl.RecordAt(float64(i), EventSchedule, "job", 1, "")
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	var total float64
	for _, lbl := range []string{"a", "b"} {
		total += snap.CounterValue("ops_total", map[string]string{"w": lbl})
	}
	if want := float64(workers * perWorker); total != want {
		t.Errorf("total ops = %v, want %v", total, want)
	}
	if n := len(tl.Events()); n != workers*perWorker {
		t.Errorf("timeline len = %d, want %d", n, workers*perWorker)
	}
}

func TestTimelineBoundAndKinds(t *testing.T) {
	tl := NewTimeline(3)
	tl.RecordAt(0, EventSubmit, "j1", 0, "")
	tl.RecordAt(1, EventSchedule, "j1", 4, "")
	tl.RecordAt(2, EventComplete, "j1", 120, "")
	tl.RecordAt(3, EventSubmit, "j2", 0, "") // over the limit: dropped
	if n := len(tl.Events()); n != 3 {
		t.Errorf("len = %d, want 3", n)
	}
	if tl.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", tl.Dropped())
	}
	ev := tl.Events()
	var subs []Event
	for _, e := range ev {
		if e.Kind == EventSubmit {
			subs = append(subs, e)
		}
	}
	if len(subs) != 1 || subs[0].Job != "j1" {
		t.Errorf("submit events = %+v", subs)
	}
	if len(ev) != 3 || ev[1].Value != 4 {
		t.Errorf("events = %+v", ev)
	}
}
