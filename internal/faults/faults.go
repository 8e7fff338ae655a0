// Package faults implements deterministic fault injection for SiloD's
// robustness story (§6 "Fault tolerance"): cache is a best-effort
// performance resource, so losing cache nodes, egress bandwidth, or GPU
// capacity must degrade throughput gracefully — down to the estimator's
// remote-IO bound b/(1-c/d) — never correctness. A fault schedule is a
// sorted list of capacity shocks and recoveries replayed identically by
// both simulation engines, the testbed, and chaos tests: everything is
// driven by virtual time and seeded randomness, never the wall clock,
// so a seeded chaos run emits byte-identical metrics snapshots.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/unit"
)

// Kind classifies a fault-schedule event.
// silod:enum
type Kind string

// The fault taxonomy. Losses remove capacity; restores return
// previously lost capacity (never more than is outstanding). Job
// crashes kill one job's execution; the scheduler requeues it with
// epoch-granular progress rollback.
const (
	// KindGPULoss removes GPU capacity (a node loss). Gang jobs that no
	// longer fit are preempted and requeued; their current epoch's
	// progress rolls back (epoch granularity, like a checkpoint at each
	// epoch boundary).
	KindGPULoss Kind = "gpu_loss"
	// KindGPURestore returns previously lost GPU capacity.
	KindGPURestore Kind = "gpu_restore"
	// KindCacheLoss removes cache capacity (a cache-node loss). Cached
	// contents are invalidated proportionally and hit ratios re-derive
	// from the shrunken snapshot.
	KindCacheLoss Kind = "cache_loss"
	// KindCacheRestore returns previously lost cache capacity. Contents
	// are not resurrected; jobs re-warm the cache.
	KindCacheRestore Kind = "cache_restore"
	// KindIOLoss degrades remote-IO egress bandwidth; ledger and token
	// buckets are re-throttled to the degraded capacity.
	KindIOLoss Kind = "io_loss"
	// KindIORestore restores previously lost egress bandwidth.
	KindIORestore Kind = "io_restore"
	// KindJobCrash crashes one job: it loses its GPUs and its current
	// epoch's progress, then re-enters the queue (crash/restart).
	KindJobCrash Kind = "job_crash"
)

// Kinds lists every valid kind in a fixed, documented order.
func Kinds() []Kind {
	return []Kind{
		KindGPULoss, KindGPURestore,
		KindCacheLoss, KindCacheRestore,
		KindIOLoss, KindIORestore,
		KindJobCrash,
	}
}

// Valid reports whether k names a known fault kind.
func (k Kind) Valid() bool {
	for _, v := range Kinds() {
		if k == v {
			return true
		}
	}
	return false
}

// Recovery reports whether k returns capacity rather than removing it.
func (k Kind) Recovery() bool {
	return k == KindGPURestore || k == KindCacheRestore || k == KindIORestore
}

// Event is one scheduled fault. Exactly the payload field matching the
// kind must be set: GPUs for gpu_*, Cache for cache_*, RemoteIO for
// io_*, Job for job_crash.
type Event struct {
	// At is the virtual time (seconds since run start) the fault fires.
	At unit.Time `json:"at_seconds"`
	// Kind selects the fault taxonomy entry.
	Kind Kind `json:"kind"`
	// GPUs is the number of GPUs lost or restored (gpu_* kinds).
	GPUs int `json:"gpus,omitempty"`
	// Cache is the cache capacity lost or restored (cache_* kinds).
	Cache unit.Bytes `json:"cache_bytes,omitempty"`
	// RemoteIO is the egress bandwidth lost or restored (io_* kinds).
	RemoteIO unit.Bandwidth `json:"io_bytes_per_sec,omitempty"`
	// Job is the crashed job's ID (job_crash only).
	Job string `json:"job,omitempty"`
}

// Amount returns the event's scalar payload, for timelines and logs.
func (e Event) Amount() float64 {
	switch e.Kind {
	case KindGPULoss, KindGPURestore:
		return float64(e.GPUs)
	case KindCacheLoss, KindCacheRestore:
		return float64(e.Cache)
	case KindIOLoss, KindIORestore:
		return float64(e.RemoteIO)
	default:
		return 0
	}
}

// Validate checks the event in isolation (capacity feasibility is the
// schedule's job).
func (e Event) Validate() error {
	if !e.Kind.Valid() {
		return fmt.Errorf("faults: unknown kind %q", e.Kind)
	}
	if e.At < 0 {
		return fmt.Errorf("faults: %s at negative time %v", e.Kind, e.At)
	}
	wantGPU := e.Kind == KindGPULoss || e.Kind == KindGPURestore
	wantCache := e.Kind == KindCacheLoss || e.Kind == KindCacheRestore
	wantIO := e.Kind == KindIOLoss || e.Kind == KindIORestore
	wantJob := e.Kind == KindJobCrash
	switch {
	case wantGPU && e.GPUs <= 0:
		return fmt.Errorf("faults: %s needs gpus > 0", e.Kind)
	case wantCache && e.Cache <= 0:
		return fmt.Errorf("faults: %s needs cache_bytes > 0", e.Kind)
	case wantIO && e.RemoteIO <= 0:
		return fmt.Errorf("faults: %s needs io_bytes_per_sec > 0", e.Kind)
	case wantJob && e.Job == "":
		return fmt.Errorf("faults: %s needs a job ID", e.Kind)
	}
	if !wantGPU && e.GPUs != 0 {
		return fmt.Errorf("faults: %s must not set gpus", e.Kind)
	}
	if !wantCache && e.Cache != 0 {
		return fmt.Errorf("faults: %s must not set cache_bytes", e.Kind)
	}
	if !wantIO && e.RemoteIO != 0 {
		return fmt.Errorf("faults: %s must not set io_bytes_per_sec", e.Kind)
	}
	if !wantJob && e.Job != "" {
		return fmt.Errorf("faults: %s must not set job", e.Kind)
	}
	return nil
}

// Schedule is an ordered fault script. The zero value (or nil) injects
// nothing.
type Schedule struct {
	Events []Event `json:"events"`
}

// normalize sorts events by time, keeping input order for ties (the
// event queue's FIFO tie-break, so same-time fault sequences replay in
// the order they were written).
func (s *Schedule) normalize() {
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
}

// Validate checks every event and replays the schedule against the
// base cluster: effective GPU capacity must stay >= 1 (a zero-GPU
// cluster is not schedulable), cache must stay >= 0, remote IO must
// stay > 0 (a cluster with no egress path strands uncached jobs
// forever), and a restore can never exceed the outstanding loss.
func (s *Schedule) Validate(base core.Cluster) error {
	if s == nil {
		return nil
	}
	var lostGPUs int
	var lostCache unit.Bytes
	var lostIO unit.Bandwidth
	ordered := append([]Event(nil), s.Events...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
	for i, e := range ordered {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
		switch e.Kind {
		case KindGPULoss:
			lostGPUs += e.GPUs
		case KindGPURestore:
			lostGPUs -= e.GPUs
		case KindCacheLoss:
			lostCache += e.Cache
		case KindCacheRestore:
			lostCache -= e.Cache
		case KindIOLoss:
			lostIO += e.RemoteIO
		case KindIORestore:
			lostIO -= e.RemoteIO
		case KindJobCrash:
			// No capacity effect: the crash preempts one job but the
			// cluster keeps its GPUs. Target-job existence is checked by
			// the engine, which knows the trace (sim.Run).
		}
		if lostGPUs < 0 || lostCache < 0 || lostIO < 0 {
			return fmt.Errorf("event %d: %s at t=%v restores more than the outstanding loss", i, e.Kind, e.At)
		}
		if base.GPUs-lostGPUs < 1 {
			return fmt.Errorf("event %d: %s at t=%v leaves %d of %d GPUs; at least 1 must survive",
				i, e.Kind, e.At, base.GPUs-lostGPUs, base.GPUs)
		}
		if base.Cache-lostCache < 0 {
			return fmt.Errorf("event %d: %s at t=%v loses more cache than the cluster has (%v of %v)",
				i, e.Kind, e.At, lostCache, base.Cache)
		}
		if base.RemoteIO-lostIO <= 0 {
			return fmt.Errorf("event %d: %s at t=%v leaves no egress bandwidth (%v of %v lost); jobs with cold caches would stall forever",
				i, e.Kind, e.At, lostIO, base.RemoteIO)
		}
	}
	return nil
}

// Parse decodes a fault schedule from its JSON form, rejecting unknown
// fields so schema typos fail loudly, and validates each event in
// isolation. Capacity feasibility is checked later, against the actual
// cluster, by Validate.
func Parse(data []byte) (*Schedule, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Schedule
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("faults: parsing schedule: %w", err)
	}
	for i, e := range s.Events {
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("faults: event %d: %w", i, err)
		}
	}
	s.normalize()
	return &s, nil
}
