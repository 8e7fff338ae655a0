package remoteio

import "repro/internal/metrics"

// LedgerMetrics exposes the allocation state of a Ledger: how much of
// the egress capacity the scheduler has handed out. The zero value
// no-ops, so an uninstrumented ledger pays nothing.
type LedgerMetrics struct {
	Allocated   *metrics.Gauge // silod_remoteio_allocated_bytes_per_sec
	Utilization *metrics.Gauge // silod_remoteio_utilization_ratio (allocated/capacity)
}

// NewLedgerMetrics interns the ledger gauges in r.
func NewLedgerMetrics(r *metrics.Registry) LedgerMetrics {
	return LedgerMetrics{
		Allocated:   r.Gauge("silod_remoteio_allocated_bytes_per_sec"),
		Utilization: r.Gauge("silod_remoteio_utilization_ratio"),
	}
}

// SetMetrics attaches instrumentation and publishes the current state.
func (l *Ledger) SetMetrics(m LedgerMetrics) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.met = m
	l.publishLocked()
}

// publishLocked refreshes the ledger gauges from the current
// allocations; the caller holds l.mu.
func (l *Ledger) publishLocked() {
	alloc := l.total.round()
	l.met.Allocated.Set(alloc)
	if l.capacity > 0 {
		l.met.Utilization.Set(alloc / float64(l.capacity))
	}
}

// BucketMetrics counts the traffic a TokenBucket admits and how often
// it has to delay a caller. Buckets for many jobs typically share one
// handle set, aggregating cluster-wide egress.
type BucketMetrics struct {
	Egress    *metrics.Counter // silod_remoteio_egress_bytes_total
	Throttles *metrics.Counter // silod_remoteio_throttle_events_total
}

// NewBucketMetrics interns the token-bucket counters in r.
func NewBucketMetrics(r *metrics.Registry) BucketMetrics {
	return BucketMetrics{
		Egress:    r.Counter("silod_remoteio_egress_bytes_total"),
		Throttles: r.Counter("silod_remoteio_throttle_events_total"),
	}
}

// SetMetrics attaches instrumentation to the bucket.
func (b *TokenBucket) SetMetrics(m BucketMetrics) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.met = m
}
