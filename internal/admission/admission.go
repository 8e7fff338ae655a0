// Package admission implements the bounded, SLO-classed admission
// queue that sits between the control plane's HTTP submit path and the
// scheduler's round loop (docs/serving.md). Submissions enqueue in
// O(1); a single scheduler goroutine drains batches per round, so a
// sustained burst backs up here — visibly, boundedly, and with an
// explicit shed policy — instead of wedging the scheduler's critical
// section.
//
// The shed policy is SLO-ranked (the Gavel-style policy-per-class
// framing PR 6 introduced): past the high-water mark sheddable
// submissions are rejected with a typed *OverloadError carrying a
// Retry-After hint; past the standard watermark standard-tier
// submissions shed too; critical submissions are only rejected when
// the queue is hard-full. Shed fractions are therefore monotone in SLO
// rank by construction, and the overload chaos suite pins that
// invariant end to end.
//
// The queue holds no clock: pressure is a pure function of depth, and
// the Retry-After hint is a duration computed from depth plus seeded
// jitter, so a seeded run sheds identically every time.
package admission

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/simrng"
	"repro/internal/tenant"
)

// State classifies queue pressure. It is derived from depth against
// the configured watermarks, never stored, so it cannot go stale.
// silod:enum
type State int

// The pressure states, calmest first.
const (
	// StateOpen: below the high-water mark; every tier queues.
	StateOpen State = iota
	// StatePressure: at or past the high-water mark; sheddable
	// submissions shed, standard submissions shed once depth reaches
	// the standard watermark.
	StatePressure
	// StateFull: the queue is hard-full; every tier sheds, critical
	// included — rejecting is strictly better than unbounded memory.
	StateFull
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StatePressure:
		return "pressure"
	case StateFull:
		return "full"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config sizes the queue and its watermarks.
type Config struct {
	// Capacity is the hard bound on queued submissions. Required.
	Capacity int
	// HighWater is the depth at which sheddable submissions start
	// shedding (default Capacity/2).
	HighWater int
	// StandardWater is the depth at which standard submissions start
	// shedding (default midway between HighWater and Capacity).
	StandardWater int
	// RetryAfter is the base client backoff hint attached to sheds
	// (default one second); the hint grows with depth and carries
	// seeded jitter so a synchronized retry storm decorrelates.
	RetryAfter time.Duration
}

// withDefaults validates and fills the zero fields.
func (c Config) withDefaults() (Config, error) {
	if c.Capacity <= 0 {
		return c, fmt.Errorf("admission: capacity must be positive (got %d)", c.Capacity)
	}
	if c.HighWater <= 0 {
		c.HighWater = c.Capacity / 2
	}
	if c.StandardWater <= 0 {
		c.StandardWater = c.HighWater + (c.Capacity-c.HighWater)/2
	}
	if c.HighWater > c.Capacity || c.StandardWater > c.Capacity || c.HighWater > c.StandardWater {
		return c, fmt.Errorf("admission: watermarks must satisfy high-water (%d) <= standard (%d) <= capacity (%d)",
			c.HighWater, c.StandardWater, c.Capacity)
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c, nil
}

// OverloadError is the typed rejection Offer returns when the shed
// policy drops a submission. The control plane maps it to HTTP 503
// with a Retry-After header; callers detect it with errors.As.
type OverloadError struct {
	SLO        tenant.SLOClass
	State      State
	Depth      int
	Capacity   int
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("admission: queue %s (depth %d of %d): %s-tier submission shed, retry after %v",
		e.State, e.Depth, e.Capacity, e.SLO, e.RetryAfter)
}

// qMetrics are the queue's instrumentation handles, interned eagerly
// per SLO class so snapshot shape never depends on which tiers a run
// happened to shed.
type qMetrics struct {
	enqueued map[tenant.SLOClass]*metrics.Counter // silod_admission_enqueued_total{slo}
	shed     map[tenant.SLOClass]*metrics.Counter // silod_admission_shed_total{slo}
	drained  *metrics.Counter                     // silod_admission_drained_total
	depth    *metrics.Gauge                       // silod_admission_depth
	state    *metrics.Gauge                       // silod_admission_state
	capacity *metrics.Gauge                       // silod_admission_capacity
}

func newQMetrics(r *metrics.Registry, capacity int) qMetrics {
	m := qMetrics{
		enqueued: make(map[tenant.SLOClass]*metrics.Counter),
		shed:     make(map[tenant.SLOClass]*metrics.Counter),
		drained:  r.Counter("silod_admission_drained_total"),
		depth:    r.Gauge("silod_admission_depth"),
		state:    r.Gauge("silod_admission_state"),
		capacity: r.Gauge("silod_admission_capacity"),
	}
	for _, c := range tenant.Classes() {
		m.enqueued[c] = r.Counter("silod_admission_enqueued_total", metrics.L("slo", c.String()))
		m.shed[c] = r.Counter("silod_admission_shed_total", metrics.L("slo", c.String()))
	}
	m.capacity.Set(float64(capacity))
	return m
}

// Queue is the bounded SLO-classed admission queue. Offer is O(1) and
// never blocks; Drain pops a batch in SLO-rank order (critical first,
// FIFO within a class), which is what makes the backlog itself
// SLO-aware: a burst that outruns the drain rate delays sheddable work
// first.
type Queue struct {
	mu    sync.Mutex
	cfg   Config
	rings [3][]any    // guarded by mu, indexed by SLOClass.Rank()
	depth int         // guarded by mu
	rng   *simrng.RNG // guarded by mu (Retry-After jitter)
	met   qMetrics
}

// New builds a queue. The registry may be nil (instrumentation
// no-ops); rng may be nil (a fixed default seed — pass a seeded RNG to
// correlate the shed-hint jitter with the run's seed).
func New(cfg Config, reg *metrics.Registry, rng *simrng.RNG) (*Queue, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if rng == nil {
		rng = simrng.New(1)
	}
	return &Queue{cfg: cfg, rng: rng, met: newQMetrics(reg, cfg.Capacity)}, nil
}

// stateLocked derives the pressure state from depth. Callers hold q.mu.
func (q *Queue) stateLocked() State {
	switch {
	case q.depth >= q.cfg.Capacity:
		return StateFull
	case q.depth >= q.cfg.HighWater:
		return StatePressure
	default:
		return StateOpen
	}
}

// shedsLocked applies the shed policy table: does the current depth
// shed a submission of this class? Callers hold q.mu.
func (q *Queue) shedsLocked(slo tenant.SLOClass) bool {
	switch slo {
	case tenant.Critical:
		return q.depth >= q.cfg.Capacity
	case tenant.Standard:
		return q.depth >= q.cfg.StandardWater
	case tenant.Sheddable:
		return q.depth >= q.cfg.HighWater
	default:
		// Unknown classes get the standard tier's treatment, matching
		// the zero-value-is-standard convention everywhere else.
		return q.depth >= q.cfg.StandardWater
	}
}

// Offer enqueues one submission, or sheds it with a typed
// *OverloadError per the SLO policy. O(1) under a single lock — the
// HTTP handler's entire cost under overload.
func (q *Queue) Offer(slo tenant.SLOClass, payload any) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.shedsLocked(slo) {
		q.met.shed[slo].Inc()
		err := &OverloadError{
			SLO:        slo,
			State:      q.stateLocked(),
			Depth:      q.depth,
			Capacity:   q.cfg.Capacity,
			RetryAfter: q.retryAfterLocked(),
		}
		q.publishLocked()
		return err
	}
	q.rings[slo.Rank()] = append(q.rings[slo.Rank()], payload)
	q.depth++
	q.met.enqueued[slo].Inc()
	q.publishLocked()
	return nil
}

// Drain pops up to max queued payloads (all of them when max <= 0) in
// SLO-rank order, FIFO within a class. The scheduler's round loop is
// the only caller, so ordering is deterministic.
func (q *Queue) Drain(max int) []any {
	q.mu.Lock()
	defer q.mu.Unlock()
	if max <= 0 || max > q.depth {
		max = q.depth
	}
	out := make([]any, 0, max)
	for rank := 0; rank < len(q.rings) && len(out) < max; rank++ {
		ring := q.rings[rank]
		take := max - len(out)
		if take > len(ring) {
			take = len(ring)
		}
		out = append(out, ring[:take]...)
		// Copy the tail down rather than re-slicing so drained entries
		// do not pin the backing array's dead prefix.
		n := copy(ring, ring[take:])
		for i := n; i < len(ring); i++ {
			ring[i] = nil
		}
		q.rings[rank] = ring[:n]
	}
	q.depth -= len(out)
	q.met.drained.Add(int64(len(out)))
	q.publishLocked()
	return out
}

// retryAfterLocked computes the shed hint: the base grows linearly
// with depth (a fuller queue asks clients to stay away longer) plus
// ±25% seeded jitter so synchronized clients decorrelate. Callers hold
// q.mu.
func (q *Queue) retryAfterLocked() time.Duration {
	base := float64(q.cfg.RetryAfter)
	d := base * (1 + float64(q.depth)/float64(q.cfg.Capacity))
	d += d * 0.25 * (2*q.rng.Float64() - 1)
	return time.Duration(d)
}

// publishLocked refreshes the depth and state gauges. Callers hold q.mu.
func (q *Queue) publishLocked() {
	q.met.depth.Set(float64(q.depth))
	q.met.state.Set(float64(q.stateLocked()))
}

// Depth reports the number of queued submissions.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}

// Watermarks reports the effective (defaulted) thresholds, for status
// surfaces and tests.
func (q *Queue) Watermarks() (highWater, standardWater, capacity int) {
	return q.cfg.HighWater, q.cfg.StandardWater, q.cfg.Capacity
}
