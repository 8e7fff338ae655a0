package admission

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/simrng"
	"repro/internal/tenant"
)

func mustQueue(t *testing.T, cfg Config) *Queue {
	t.Helper()
	q, err := New(cfg, metrics.NewRegistry("test"), simrng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestConfigDefaults(t *testing.T) {
	q := mustQueue(t, Config{Capacity: 40})
	hw, sw, cap := q.Watermarks()
	if hw != 20 || sw != 30 || cap != 40 {
		t.Errorf("defaults = (%d, %d, %d), want (20, 30, 40)", hw, sw, cap)
	}
	for _, bad := range []Config{
		{},
		{Capacity: -1},
		{Capacity: 10, HighWater: 20},
		{Capacity: 10, HighWater: 8, StandardWater: 4},
	} {
		if _, err := New(bad, nil, nil); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

// TestShedPolicyTable walks the depth axis and checks each tier's shed
// threshold: sheddable at high-water, standard at the standard
// watermark, critical only when hard-full.
func TestShedPolicyTable(t *testing.T) {
	q := mustQueue(t, Config{Capacity: 8, HighWater: 2, StandardWater: 4})
	fill := func(n int) {
		t.Helper()
		for q.Depth() < n {
			if err := q.Offer(tenant.Critical, "fill"); err != nil {
				t.Fatalf("fill to %d: %v", n, err)
			}
		}
	}
	sheds := func(c tenant.SLOClass) bool {
		t.Helper()
		err := q.Offer(c, "probe")
		if err == nil {
			return false // caller resets depth before the next probe
		}
		var oe *OverloadError
		if !errors.As(err, &oe) {
			t.Fatalf("shed error has wrong type: %v", err)
		}
		if oe.RetryAfter <= 0 {
			t.Errorf("shed at depth %d carries no Retry-After hint", oe.Depth)
		}
		return true
	}
	cases := []struct {
		depth                         int
		critical, standard, sheddable bool // expect shed?
	}{
		{0, false, false, false},
		{1, false, false, false},
		{2, false, false, true},
		{3, false, false, true},
		{4, false, true, true},
		{7, false, true, true},
		{8, true, true, true},
	}
	for _, c := range cases {
		// Reset to exactly c.depth between probes.
		q.Drain(0)
		fill(c.depth)
		for _, tier := range []struct {
			class tenant.SLOClass
			want  bool
		}{
			{tenant.Critical, c.critical},
			{tenant.Standard, c.standard},
			{tenant.Sheddable, c.sheddable},
		} {
			q.Drain(0)
			fill(c.depth)
			if got := sheds(tier.class); got != tier.want {
				t.Errorf("depth %d, %s: shed = %v, want %v", c.depth, tier.class, got, tier.want)
			}
		}
	}
}

func TestStateTransitions(t *testing.T) {
	q := mustQueue(t, Config{Capacity: 4, HighWater: 2, StandardWater: 3})
	if q.stateLocked() != StateOpen {
		t.Errorf("empty queue state = %v, want open", q.stateLocked())
	}
	for i := 0; i < 2; i++ {
		if err := q.Offer(tenant.Critical, i); err != nil {
			t.Fatal(err)
		}
	}
	if q.stateLocked() != StatePressure {
		t.Errorf("at high-water state = %v, want pressure", q.stateLocked())
	}
	for i := 0; i < 2; i++ {
		if err := q.Offer(tenant.Critical, i); err != nil {
			t.Fatal(err)
		}
	}
	if q.stateLocked() != StateFull {
		t.Errorf("at capacity state = %v, want full", q.stateLocked())
	}
	if err := q.Offer(tenant.Critical, "x"); err == nil {
		t.Error("hard-full queue accepted a critical submission")
	}
	q.Drain(0)
	if q.stateLocked() != StateOpen || q.Depth() != 0 {
		t.Errorf("drained queue state = %v depth %d, want open 0", q.stateLocked(), q.Depth())
	}
	for _, s := range []State{StateOpen, StatePressure, StateFull, State(99)} {
		if s.String() == "" {
			t.Errorf("State(%d) has empty String", int(s))
		}
	}
}

// TestDrainOrderSLORankThenFIFO: the backlog drains critical first,
// FIFO within a class, regardless of arrival interleaving.
func TestDrainOrderSLORankThenFIFO(t *testing.T) {
	q := mustQueue(t, Config{Capacity: 100})
	offers := []struct {
		class tenant.SLOClass
		id    string
	}{
		{tenant.Sheddable, "s1"}, {tenant.Critical, "c1"}, {tenant.Standard, "n1"},
		{tenant.Critical, "c2"}, {tenant.Sheddable, "s2"}, {tenant.Standard, "n2"},
	}
	for _, o := range offers {
		if err := q.Offer(o.class, o.id); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	// Batched drain preserves the global order across calls.
	for _, p := range q.Drain(4) {
		got = append(got, p.(string))
	}
	for _, p := range q.Drain(0) {
		got = append(got, p.(string))
	}
	want := []string{"c1", "c2", "n1", "n2", "s1", "s2"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("drain order = %v, want %v", got, want)
		}
	}
	if q.Depth() != 0 {
		t.Errorf("depth after full drain = %d", q.Depth())
	}
}

// TestRetryAfterDeterministicAndDepthScaled: same seed, same hints;
// deeper queues hand out longer hints (before jitter, monotone in
// expectation — asserted via the jitter bounds).
func TestRetryAfterDeterministicAndDepthScaled(t *testing.T) {
	hints := func(seed int64) []time.Duration {
		q, err := New(Config{Capacity: 10, HighWater: 1, RetryAfter: time.Second},
			nil, simrng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		var out []time.Duration
		if err := q.Offer(tenant.Critical, "x"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			err := q.Offer(tenant.Sheddable, i)
			var oe *OverloadError
			if !errors.As(err, &oe) {
				t.Fatalf("offer %d: %v", i, err)
			}
			out = append(out, oe.RetryAfter)
			// Refill so depth grows: every other offer is critical.
			if err := q.Offer(tenant.Critical, i); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	a, b := hints(7), hints(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hint %d not deterministic: %v != %v", i, a[i], b[i])
		}
	}
	// Jitter is bounded by ±25% of the depth-scaled base.
	q := mustQueue(t, Config{Capacity: 10, HighWater: 1, RetryAfter: time.Second})
	if err := q.Offer(tenant.Critical, "x"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		err := q.Offer(tenant.Sheddable, i)
		var oe *OverloadError
		if !errors.As(err, &oe) {
			t.Fatal(err)
		}
		base := float64(time.Second) * (1 + float64(oe.Depth)/10)
		if f := float64(oe.RetryAfter); f < 0.74*base || f > 1.26*base {
			t.Fatalf("hint %v outside jitter envelope of base %v", oe.RetryAfter, time.Duration(base))
		}
	}
}

func TestMetricsShape(t *testing.T) {
	reg := metrics.NewRegistry("adm")
	q, err := New(Config{Capacity: 2, HighWater: 1, StandardWater: 1}, reg, simrng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Offer(tenant.Standard, "a"); err != nil {
		t.Fatal(err)
	}
	if err := q.Offer(tenant.Sheddable, "b"); err == nil {
		t.Error("sheddable offer at high-water accepted")
	}
	q.Drain(0)
	snap := reg.Snapshot()
	checks := map[string]float64{
		"silod_admission_drained_total": 1,
	}
	for name, want := range checks {
		if got := snap.CounterValue(name, nil); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := snap.CounterValue("silod_admission_enqueued_total", map[string]string{"slo": "standard"}); got != 1 {
		t.Errorf("enqueued{standard} = %v, want 1", got)
	}
	if got := snap.CounterValue("silod_admission_shed_total", map[string]string{"slo": "sheddable"}); got != 1 {
		t.Errorf("shed{sheddable} = %v, want 1", got)
	}
	// Eager interning: the critical series exists at zero.
	if _, ok := snap.Get("silod_admission_shed_total", map[string]string{"slo": "critical"}); !ok {
		t.Error("shed{critical} series not interned eagerly")
	}
	if v, ok := snap.Get("silod_admission_depth", nil); !ok || *v.Value != 0 {
		t.Errorf("depth gauge = %+v, want 0", v)
	}
}

// TestConcurrentOfferDrain is the -race workout: producers across all
// tiers against a draining consumer, with conservation checked at the
// end (every offer either queued-then-drained or shed).
func TestConcurrentOfferDrain(t *testing.T) {
	q := mustQueue(t, Config{Capacity: 64, HighWater: 16, StandardWater: 32})
	const producers, perProducer = 8, 200
	var wg sync.WaitGroup
	var mu sync.Mutex
	shed := 0
	classes := []tenant.SLOClass{tenant.Critical, tenant.Standard, tenant.Sheddable}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := q.Offer(classes[(p+i)%3], i); err != nil {
					mu.Lock()
					shed++
					mu.Unlock()
				}
			}
		}(p)
	}
	stop := make(chan struct{})
	go func() {
		wg.Wait()
		close(stop)
	}()
	drained := 0
drainLoop:
	for {
		drained += len(q.Drain(8))
		select {
		case <-stop:
			break drainLoop
		case <-time.After(100 * time.Microsecond):
		}
	}
	drained += len(q.Drain(0))
	mu.Lock()
	defer mu.Unlock()
	if drained+shed != producers*perProducer {
		t.Errorf("conservation violated: drained %d + shed %d != %d",
			drained, shed, producers*perProducer)
	}
}

func TestOverloadErrorRoundTrip(t *testing.T) {
	e := &OverloadError{
		SLO: tenant.Sheddable, State: StatePressure,
		Depth: 9, Capacity: 16, RetryAfter: 1500 * time.Millisecond,
	}
	for _, want := range []string{"pressure", "sheddable", "9 of 16", "1.5s"} {
		if !contains(e.Error(), want) {
			t.Errorf("error %q missing %q", e.Error(), want)
		}
	}
	// The error is also used in JSON status surfaces; it must marshal.
	if _, err := json.Marshal(e); err != nil {
		t.Fatal(err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
