// Package eventq implements the discrete-event queue at the heart of the
// cluster simulator: a binary min-heap ordered by event time with stable
// FIFO tie-breaking and O(log n) cancellation.
//
// The heap is hand-rolled rather than built on container/heap: the
// interface-based API forces an allocation per Push (boxing the *Event
// into an `any`) and virtual dispatch per comparison, which shows up in
// the batch engine where every block completion is an event. The manual
// siftUp/siftDown operations below keep pops, pushes, and mid-heap
// removals at O(log n) with zero allocations beyond slice growth.
package eventq

// Event is a scheduled callback. The zero Event is invalid; obtain events
// from Queue.Schedule.
type Event struct {
	time  float64
	seq   uint64
	index int // position in heap, -1 when popped or cancelled
	fn    func()
}

// Cancelled reports whether the event has been cancelled or already fired.
func (e *Event) Cancelled() bool { return e.index == -1 }

// Queue is a time-ordered event queue. It is not safe for concurrent use;
// the simulator is single-threaded by design so event ordering is total
// and runs are reproducible.
type Queue struct {
	h   eventHeap
	seq uint64
	now float64
}

// New returns an empty queue starting at time 0.
func New() *Queue { return &Queue{} }

// Now reports the current simulation time: the fire time of the most
// recently popped event.
func (q *Queue) Now() float64 { return q.now }

// Schedule enqueues fn to run at time t. Events scheduled for the same
// time fire in insertion order. Scheduling in the past (t < Now) is a
// programming error and panics rather than silently reordering history.
//
// silod:hotpath — the PR-5 benchmark pins schedule+step at 1 alloc/op:
// exactly the waived *Event below, nothing else.
func (q *Queue) Schedule(t float64, fn func()) *Event {
	if t < q.now {
		panic("eventq: scheduling event in the past")
	}
	e := &Event{time: t, seq: q.seq, fn: fn} // silod:alloc the one budgeted alloc/op: the handle outlives the call so callers can Cancel
	q.seq++
	e.index = len(q.h)
	q.h = append(q.h, e)
	q.h.siftUp(e.index)
	return e
}

// After enqueues fn to run d time units from now.
//
// silod:hotpath
func (q *Queue) After(d float64, fn func()) *Event {
	return q.Schedule(q.now+d, fn)
}

// Cancel removes e from the queue if still pending. Cancelling an already
// fired or cancelled event is a no-op.
//
// silod:hotpath
func (q *Queue) Cancel(e *Event) {
	if e == nil || e.index == -1 {
		return
	}
	q.h.remove(e.index)
	e.index = -1
}

// Step pops and runs the earliest event. It reports false when the queue
// is empty.
//
// silod:hotpath
func (q *Queue) Step() bool {
	if len(q.h) == 0 {
		return false
	}
	e := q.h[0]
	q.h.remove(0)
	e.index = -1
	q.now = e.time
	e.fn()
	return true
}

type eventHeap []*Event

// silod:hotpath
func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

// silod:hotpath
func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

// siftUp restores the heap invariant after h[i] became smaller (insert).
//
// silod:hotpath
func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// siftDown restores the heap invariant after h[i] became larger. It
// reports whether any swap happened (remove uses this to decide whether
// the displaced element must sift up instead).
//
// silod:hotpath
func (h eventHeap) siftDown(i int) bool {
	start := i
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			break
		}
		h.swap(i, least)
		i = least
	}
	return i > start
}

// remove deletes h[i], filling the hole with the last element and
// sifting it to its place.
//
// silod:hotpath
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	if i != n {
		old.swap(i, n)
	}
	old[n] = nil
	*h = old[:n]
	if i != n {
		if !(*h).siftDown(i) {
			(*h).siftUp(i)
		}
	}
}
