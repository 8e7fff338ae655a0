package controlplane

import (
	"net/http"

	"repro/internal/metrics"
)

// schedMetrics is the scheduler daemon's own instrumentation. The
// scheduler always carries a registry (the /metrics endpoint is part of
// its API surface), so these handles are never nil.
type schedMetrics struct {
	rounds         *metrics.Counter // silod_sched_rounds_total
	submitted      *metrics.Counter // silod_sched_jobs_submitted_total
	pushErrors     *metrics.Counter // silod_sched_push_errors_total
	heartbeats     *metrics.Counter // silod_sched_heartbeats_total
	nodeDeaths     *metrics.Counter // silod_sched_node_deaths_total
	nodeRecoveries *metrics.Counter // silod_sched_node_recoveries_total
	preemptions    *metrics.Counter // silod_sched_preemptions_total
	roundsReused   *metrics.Counter // silod_sched_rounds_reused_total
	pushesSkipped  *metrics.Counter // silod_sched_pushes_skipped_total
	queueDepth     *metrics.Gauge   // silod_sched_queue_depth
	running        *metrics.Gauge   // silod_sched_running_jobs
	gpusAlloc      *metrics.Gauge   // silod_sched_gpus_allocated
	nodesLive      *metrics.Gauge   // silod_sched_nodes_live
	effGPUs        *metrics.Gauge   // silod_sched_effective_gpus
	effCache       *metrics.Gauge   // silod_sched_effective_cache_bytes
	// Serving-round watchdog (serve.go).
	roundSeconds      *metrics.Histogram // silod_sched_round_seconds
	lastRoundSeconds  *metrics.Gauge     // silod_sched_last_round_seconds
	roundOverruns     *metrics.Counter   // silod_sched_round_overruns_total
	asyncSubmitErrors *metrics.Counter   // silod_sched_async_submit_errors_total
	draining          *metrics.Gauge     // silod_sched_draining
}

func newSchedMetrics(r *metrics.Registry) schedMetrics {
	return schedMetrics{
		rounds:         r.Counter("silod_sched_rounds_total"),
		submitted:      r.Counter("silod_sched_jobs_submitted_total"),
		pushErrors:     r.Counter("silod_sched_push_errors_total"),
		heartbeats:     r.Counter("silod_sched_heartbeats_total"),
		nodeDeaths:     r.Counter("silod_sched_node_deaths_total"),
		nodeRecoveries: r.Counter("silod_sched_node_recoveries_total"),
		preemptions:    r.Counter("silod_sched_preemptions_total"),
		roundsReused:   r.Counter("silod_sched_rounds_reused_total"),
		pushesSkipped:  r.Counter("silod_sched_pushes_skipped_total"),
		queueDepth:     r.Gauge("silod_sched_queue_depth"),
		running:        r.Gauge("silod_sched_running_jobs"),
		gpusAlloc:      r.Gauge("silod_sched_gpus_allocated"),
		nodesLive:      r.Gauge("silod_sched_nodes_live"),
		effGPUs:        r.Gauge("silod_sched_effective_gpus"),
		effCache:       r.Gauge("silod_sched_effective_cache_bytes"),
		// 1ms .. ~8s: a round that blows past the top bucket is a wedged
		// data plane.
		roundSeconds:      r.Histogram("silod_sched_round_seconds", metrics.ExpBuckets(0.001, 2, 14)),
		lastRoundSeconds:  r.Gauge("silod_sched_last_round_seconds"),
		roundOverruns:     r.Counter("silod_sched_round_overruns_total"),
		asyncSubmitErrors: r.Counter("silod_sched_async_submit_errors_total"),
		draining:          r.Gauge("silod_sched_draining"),
	}
}

// roundDone counts a finished round and publishes its job gauges.
func (m *schedMetrics) roundDone(running, gpus, queued int) {
	m.rounds.Inc()
	m.running.Set(float64(running))
	m.gpusAlloc.Set(float64(gpus))
	m.queueDepth.Set(float64(queued))
}

// Registry returns the scheduler's metrics registry (never nil).
func (s *SchedulerServer) Registry() *metrics.Registry { return s.registry }

// handleMetrics serves the registry in Prometheus text format.
func (s *SchedulerServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	servePrometheus(w, s.registry)
}

// handleMetrics serves the wrapped manager's registry (empty unless
// EnableMetrics was called on it).
func (s *DataManagerServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	servePrometheus(w, s.mgr.Registry())
}

// servePrometheus writes a registry as text exposition format 0.0.4. A
// nil registry serves an empty (valid) page rather than an error, so
// scrapers keep working when instrumentation is off.
func servePrometheus(w http.ResponseWriter, r *metrics.Registry) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if r == nil {
		return
	}
	_ = r.WritePrometheus(w)
}
