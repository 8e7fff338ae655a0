package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrdering(t *testing.T) {
	q := New()
	var fired []float64
	for _, tm := range []float64{5, 1, 3, 2, 4} {
		tm := tm
		q.Schedule(tm, func() { fired = append(fired, tm) })
	}
	for q.Step() {
	}
	if !sort.Float64sAreSorted(fired) {
		t.Errorf("events out of order: %v", fired)
	}
	if q.Now() != 5 {
		t.Errorf("clock = %v", q.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	q := New()
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(7, func() { fired = append(fired, i) })
	}
	for q.Step() {
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-time events reordered: %v", fired)
		}
	}
}

func TestCancel(t *testing.T) {
	q := New()
	ran := false
	e := q.Schedule(1, func() { ran = true })
	q.Cancel(e)
	if !e.Cancelled() {
		t.Error("event not marked cancelled")
	}
	for q.Step() {
	}
	if ran {
		t.Error("cancelled event fired")
	}
	// Double cancel and nil cancel are no-ops.
	q.Cancel(e)
	q.Cancel(nil)
}

func TestCancelMiddleOfHeap(t *testing.T) {
	q := New()
	var fired []float64
	var events []*Event
	for _, tm := range []float64{1, 2, 3, 4, 5} {
		tm := tm
		events = append(events, q.Schedule(tm, func() { fired = append(fired, tm) }))
	}
	q.Cancel(events[2]) // cancel t=3
	for q.Step() {
	}
	want := []float64{1, 2, 4, 5}
	if len(fired) != len(want) {
		t.Fatalf("fired %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	q := New()
	q.Schedule(10, func() {})
	q.Step()
	defer func() {
		if recover() == nil {
			t.Error("no panic for past event")
		}
	}()
	q.Schedule(5, func() {})
}

// TestAfterAndRunUntil: After schedules relative to the firing event's
// time, and stepping while the head is due by t leaves later events
// pending.
func TestAfterAndRunUntil(t *testing.T) {
	q := New()
	count := 0
	q.Schedule(5, func() {
		count++
		q.After(10, func() { count++ }) // fires at 15
	})
	runUntil := func(t float64) {
		for len(q.h) > 0 && q.h[0].time <= t {
			q.Step()
		}
	}
	runUntil(10)
	if count != 1 {
		t.Errorf("count after 10 = %d", count)
	}
	if len(q.h) != 1 || q.h[0].time != 15 {
		t.Errorf("pending after 10 = %d events, head %v; want one at 15", len(q.h), q.h)
	}
	runUntil(20)
	if count != 2 || q.Now() != 15 {
		t.Errorf("count = %d at %v, want 2 at 15", count, q.Now())
	}
}

func TestRandomizedOrderingProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		q := New()
		var fired []float64
		for i := 0; i < int(n); i++ {
			tm := r.Float64() * 100
			q.Schedule(tm, func() { fired = append(fired, tm) })
		}
		for q.Step() {
		}
		return sort.Float64sAreSorted(fired) && len(fired) == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
