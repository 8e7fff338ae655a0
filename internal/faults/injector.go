package faults

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/tenant"
	"repro/internal/unit"
)

// Injector replays a validated schedule against a base cluster and
// tracks the effective (degraded) capacity. It is a pure, virtual-time
// state machine: the engine that owns it decides when time advances and
// what each popped event means for its own state (preempting jobs,
// shrinking pools, re-throttling buckets). One engine goroutine drives
// an Injector; it is not safe for concurrent use.
type Injector struct {
	base   core.Cluster
	events []Event // sorted by At, FIFO within ties
	next   int

	lostGPUs  int
	lostCache unit.Bytes
	lostIO    unit.Bandwidth

	lastT        unit.Time     // virtual time up to which degraded time is accounted
	timeDegraded unit.Duration // total virtual time with any capacity lost

	preempted int64
	met       Metrics
	tl        *metrics.Timeline
}

// NewInjector validates sched against base and returns an injector.
// A nil or empty schedule yields a no-op injector (Effective == base
// forever). Metric handles are interned eagerly for every fault kind so
// a run's snapshot shape does not depend on which faults fired. reg and
// tl may be nil.
func NewInjector(base core.Cluster, sched *Schedule, reg *metrics.Registry, tl *metrics.Timeline) (*Injector, error) {
	if err := sched.Validate(base); err != nil {
		return nil, fmt.Errorf("faults: invalid schedule: %w", err)
	}
	in := &Injector{base: base, met: NewMetrics(reg), tl: tl}
	if sched != nil {
		in.events = append([]Event(nil), sched.Events...)
		s := Schedule{Events: in.events}
		s.normalize()
		in.events = s.Events
	}
	in.met.publish(in)
	return in, nil
}

// Effective returns the current degraded capacity view. Policies and
// Assignment validation must use this, never the base cluster, so a
// post-fault re-solve cannot over-grant GPUs, cache, or bandwidth.
func (in *Injector) Effective() core.Cluster {
	return core.Cluster{
		GPUs:     in.base.GPUs - in.lostGPUs,
		Cache:    in.base.Cache - in.lostCache,
		RemoteIO: in.base.RemoteIO - in.lostIO,
	}
}

// Degraded reports whether any capacity is currently lost.
func (in *Injector) Degraded() bool {
	return in.lostGPUs > 0 || in.lostCache > 0 || in.lostIO > 0
}

// TimeDegraded reports the accumulated virtual time spent with any
// capacity lost, up to the last Next/Finish call.
func (in *Injector) TimeDegraded() unit.Duration { return in.timeDegraded }

// NextAt returns the next pending event's time, if any — engines cap
// their integration horizon with it so faults land exactly on time.
func (in *Injector) NextAt() (unit.Time, bool) {
	if in.next >= len(in.events) {
		return 0, false
	}
	return in.events[in.next].At, true
}

// Next pops and applies the next event due at or before now. Engines
// call it in a loop at each decision point and translate each returned
// event into engine-specific state changes; Effective() already
// reflects the event when Next returns. Degraded-time accounting
// accrues at event timestamps, so it is exact regardless of how late
// the engine polls.
func (in *Injector) Next(now unit.Time) (Event, bool) {
	if in.next >= len(in.events) || in.events[in.next].At > now {
		return Event{}, false
	}
	ev := in.events[in.next]
	in.next++
	in.accrueTo(ev.At)
	switch ev.Kind {
	case KindGPULoss:
		in.lostGPUs += ev.GPUs
	case KindGPURestore:
		in.lostGPUs -= ev.GPUs
	case KindCacheLoss:
		in.lostCache += ev.Cache
	case KindCacheRestore:
		in.lostCache -= ev.Cache
	case KindIOLoss:
		in.lostIO += ev.RemoteIO
	case KindIORestore:
		in.lostIO -= ev.RemoteIO
	case KindJobCrash:
		// No effective-capacity change: the engine translates the crash
		// into a preemption; the injector only stamps and counts it.
	}
	kind := metrics.EventFault
	if ev.Kind.Recovery() {
		kind = metrics.EventRecover
		in.met.Recoveries.Inc()
	}
	in.met.Injected[ev.Kind].Inc()
	in.met.publish(in)
	in.tl.RecordAt(float64(ev.At), kind, ev.Job, ev.Amount(), string(ev.Kind))
	return ev, true
}

// Finish closes the degraded-time accounting at the end of a run.
func (in *Injector) Finish(now unit.Time) {
	in.accrueTo(now)
	in.met.publish(in)
}

// CountPreemptionsSLO records fault preemptions attributed to the
// victim job's SLO class, feeding both the aggregate counter and the
// per-class split.
func (in *Injector) CountPreemptionsSLO(class tenant.SLOClass, n int) {
	if n <= 0 {
		return
	}
	in.preempted += int64(n)
	in.met.Preemptions.Add(int64(n))
	in.met.SLOPreemptions[class].Add(int64(n))
}

// Preemptions reports the fault-caused preemption count.
func (in *Injector) Preemptions() int64 { return in.preempted }

// accrueTo advances the degraded-time account to virtual time t.
func (in *Injector) accrueTo(t unit.Time) {
	if t <= in.lastT {
		return
	}
	if in.Degraded() {
		in.timeDegraded += t.Sub(in.lastT)
	}
	in.lastT = t
}
