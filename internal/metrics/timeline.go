package metrics

import "sync"

// EventKind classifies a timeline event.
// silod:enum
type EventKind string

// The structured per-job event kinds the schedulers and engines emit.
const (
	EventSubmit     EventKind = "submit"      // job entered the system
	EventSchedule   EventKind = "schedule"    // job granted GPUs (Value = count)
	EventPreempt    EventKind = "preempt"     // job lost its GPUs
	EventCacheAlloc EventKind = "cache_alloc" // dataset quota set (Job = key, Value = bytes)
	EventIOAlloc    EventKind = "io_alloc"    // remote IO rate set (Value = bytes/sec)
	EventEpoch      EventKind = "epoch"       // job crossed an epoch boundary
	EventComplete   EventKind = "complete"    // job finished (Value = JCT seconds)
	EventFault      EventKind = "fault"       // capacity lost or job crashed (Detail = kind)
	EventRecover    EventKind = "recover"     // lost capacity restored (Detail = kind)
)

// Event is one timeline entry. T is *virtual* time in seconds — the
// simulator's clock, the testbed's scaled clock, or wall seconds since
// a daemon's start — so timelines from all three sources line up.
type Event struct {
	T      float64   `json:"t"`
	Kind   EventKind `json:"kind"`
	Job    string    `json:"job,omitempty"`
	Value  float64   `json:"value,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// Timeline is an append-only, bounded, thread-safe event recorder. A
// nil Timeline no-ops, so producers record unconditionally. When the
// bound is reached new events are dropped (and counted) rather than
// evicting history: the head of a schedule is worth more than its tail
// for post-mortem debugging, and dropping beats unbounded growth.
type Timeline struct {
	mu      sync.Mutex
	events  []Event // guarded by mu
	limit   int     // immutable after construction
	dropped int64   // guarded by mu
}

// DefaultTimelineLimit bounds a Timeline constructed with limit <= 0.
const DefaultTimelineLimit = 1 << 20

// NewTimeline returns an empty timeline holding at most limit events
// (DefaultTimelineLimit if limit <= 0).
func NewTimeline(limit int) *Timeline {
	if limit <= 0 {
		limit = DefaultTimelineLimit
	}
	return &Timeline{limit: limit}
}

// RecordAt appends an event stamped with the caller's virtual time.
func (tl *Timeline) RecordAt(t float64, kind EventKind, job string, value float64, detail string) {
	if tl == nil {
		return
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if len(tl.events) >= tl.limit {
		tl.dropped++
		return
	}
	tl.events = append(tl.events, Event{T: t, Kind: kind, Job: job, Value: value, Detail: detail})
}

// Events returns a copy of the recorded events in append order.
func (tl *Timeline) Events() []Event {
	if tl == nil {
		return nil
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return append([]Event(nil), tl.events...)
}

// Dropped reports how many events were discarded at the limit.
func (tl *Timeline) Dropped() int64 {
	if tl == nil {
		return 0
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.dropped
}
