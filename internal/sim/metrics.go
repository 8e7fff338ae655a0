package sim

import (
	"math"
	"sort"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/unit"
)

// jctBuckets spans 1 minute to ~5.7 simulated days in powers of two —
// wide enough for the paper's Philly-derived traces.
var jctBuckets = metrics.ExpBuckets(1, 2, 14)

// simMetrics bundles the instrumentation handles shared by both
// engines. Every handle no-ops when Config.Metrics / Config.Timeline
// are nil, so engine code updates them unconditionally.
type simMetrics struct {
	tl *metrics.Timeline

	// Hit/miss byte totals accumulate in compensated floating point and
	// flush to the integer counters once at the end of the run. The
	// fluid engine advances jobs in fractional-byte steps whose
	// boundaries depend on the configuration (completions, epoch edges,
	// rescheduling horizons), so truncating to int64 per step made two
	// runs over the *same* hit stream report different totals — the
	// BENCH_baseline.json hit-ratio discrepancy. Compensated summation
	// plus a single rounding at flush time makes the reported ratio a
	// function of the stream alone.
	hitAcc  stats.Kahan
	missAcc stats.Kahan

	hitBytes    *metrics.Counter   // silod_sim_cache_hit_bytes_total
	missBytes   *metrics.Counter   // silod_sim_cache_miss_bytes_total
	reschedules *metrics.Counter   // silod_sim_reschedules_total
	completions *metrics.Counter   // silod_sim_job_completions_total
	preemptions *metrics.Counter   // silod_sim_preemptions_total
	gpusBusy    *metrics.Gauge     // silod_sim_gpus_busy
	runningJobs *metrics.Gauge     // silod_sim_running_jobs
	remoteMBps  *metrics.Gauge     // silod_sim_remoteio_mbps
	remoteUtil  *metrics.Gauge     // silod_sim_remoteio_utilization_ratio
	jct         *metrics.Histogram // silod_sim_jct_minutes

	// reg is kept so initTenants can intern per-tenant handles; ten is
	// immutable after initTenants, keyed by tenant label ("" maps to
	// "default"). Handles are interned eagerly for every tenant in the
	// trace so the snapshot shape depends only on the job set, keeping
	// same-seed runs byte-identical.
	reg *metrics.Registry
	ten map[string]*tenantSimMetrics
}

// tenantSimMetrics are one tenant's engine-side handles.
type tenantSimMetrics struct {
	trained     *metrics.Counter // silod_tenant_trained_bytes_total{tenant}
	completions *metrics.Counter // silod_tenant_completions_total{tenant}
	preemptions *metrics.Counter // silod_tenant_preemptions_total{tenant}
	running     *metrics.Gauge   // silod_tenant_running_jobs{tenant}
	gpusBusy    *metrics.Gauge   // silod_tenant_gpus_busy{tenant}
}

// tenantLabel maps the untenanted flat pool onto a stable label.
func tenantLabel(id string) string {
	if id == "" {
		return "default"
	}
	return id
}

// newSimMetrics interns the engine metric handles. cfg.Metrics may be
// nil (all handles nil, all updates free).
func newSimMetrics(cfg Config) *simMetrics {
	r := cfg.Metrics
	return &simMetrics{
		tl:          cfg.Timeline,
		hitBytes:    r.Counter("silod_sim_cache_hit_bytes_total"),
		missBytes:   r.Counter("silod_sim_cache_miss_bytes_total"),
		reschedules: r.Counter("silod_sim_reschedules_total"),
		completions: r.Counter("silod_sim_job_completions_total"),
		preemptions: r.Counter("silod_sim_preemptions_total"),
		gpusBusy:    r.Gauge("silod_sim_gpus_busy"),
		runningJobs: r.Gauge("silod_sim_running_jobs"),
		remoteMBps:  r.Gauge("silod_sim_remoteio_mbps"),
		remoteUtil:  r.Gauge("silod_sim_remoteio_utilization_ratio"),
		jct:         r.Histogram("silod_sim_jct_minutes", jctBuckets),
		reg:         r,
		ten:         make(map[string]*tenantSimMetrics),
	}
}

// initTenants interns the per-tenant handles for every distinct tenant
// in the trace. Both engines call it once, after building their job
// runtimes and before the run starts.
func (m *simMetrics) initTenants(jobs []*jobRT) {
	for _, j := range jobs {
		id := tenantLabel(j.spec.Tenant)
		if _, ok := m.ten[id]; ok {
			continue
		}
		m.ten[id] = &tenantSimMetrics{
			trained:     m.reg.Counter("silod_tenant_trained_bytes_total", metrics.L("tenant", id)),
			completions: m.reg.Counter("silod_tenant_completions_total", metrics.L("tenant", id)),
			preemptions: m.reg.Counter("silod_tenant_preemptions_total", metrics.L("tenant", id)),
			running:     m.reg.Gauge("silod_tenant_running_jobs", metrics.L("tenant", id)),
			gpusBusy:    m.reg.Gauge("silod_tenant_gpus_busy", metrics.L("tenant", id)),
		}
	}
}

// flushTenantTrained rounds each tenant's total attained bytes into its
// trained-bytes counter. Attained bytes can move backwards mid-run
// (epoch rollback on fault preemption), so the counter is written once
// at run end from the final per-job totals, keeping it monotonic.
func (m *simMetrics) flushTenantTrained(jobs []*jobRT) {
	sums := make(map[string]float64, len(m.ten))
	for _, j := range jobs {
		sums[tenantLabel(j.spec.Tenant)] += float64(j.attained)
	}
	ids := make([]string, 0, len(sums))
	for id := range sums {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		m.ten[id].trained.Add(int64(math.Round(sums[id])))
	}
}

// addHitMiss accumulates one advance step's hit/miss byte split.
func (m *simMetrics) addHitMiss(hit, miss float64) {
	m.hitAcc.Add(hit)
	m.missAcc.Add(miss)
}

// flushBytes rounds the compensated totals into the exported counters.
// Call exactly once, when the run completes.
func (m *simMetrics) flushBytes() {
	m.hitBytes.Add(int64(math.Round(m.hitAcc.Sum())))
	m.missBytes.Add(int64(math.Round(m.missAcc.Sum())))
}

// submitAll records a submit event per job at its arrival time.
func (m *simMetrics) submitAll(jobs []*jobRT) {
	for _, j := range jobs {
		m.tl.RecordAt(float64(j.spec.Submit), metrics.EventSubmit, j.spec.ID,
			float64(j.spec.NumGPUs), "gpus_requested")
	}
}

// transition records a job gaining or losing GPUs at a decision point.
func (m *simMetrics) transition(now unit.Time, j *jobRT, wasRunning bool) {
	if j.running && !wasRunning {
		m.tl.RecordAt(float64(now), metrics.EventSchedule, j.spec.ID, float64(j.gpus), "gpus")
	}
	if !j.running && wasRunning && !j.done {
		m.preempt(now, j, "")
	}
}

// preempt records a job losing its GPUs; note says why when it was not
// a scheduling decision ("crash").
func (m *simMetrics) preempt(now unit.Time, j *jobRT, note string) {
	m.preemptions.Inc()
	if ts := m.ten[tenantLabel(j.spec.Tenant)]; ts != nil {
		ts.preemptions.Inc()
	}
	m.tl.RecordAt(float64(now), metrics.EventPreempt, j.spec.ID, 0, note)
}

// jobDone records a completion: counters (aggregate and per-tenant),
// JCT histogram, timeline event.
func (m *simMetrics) jobDone(now unit.Time, st JobStat, tenantID string) {
	m.completions.Inc()
	if ts := m.ten[tenantLabel(tenantID)]; ts != nil {
		ts.completions.Inc()
	}
	m.jct.Observe(st.JCT().Minutes())
	m.tl.RecordAt(float64(now), metrics.EventComplete, st.ID, float64(st.JCT()), "jct_seconds")
}

// utilization refreshes the point-in-time gauges. remoteMBps is the
// current remote IO draw; cap the cluster egress capacity.
func (m *simMetrics) utilization(running []*jobRT, remoteMBps float64, capacity unit.Bandwidth) {
	var gpus int
	tenGPUs := make(map[string]int, len(m.ten))
	tenJobs := make(map[string]int, len(m.ten))
	for _, j := range running {
		gpus += j.gpus
		id := tenantLabel(j.spec.Tenant)
		tenGPUs[id] += j.gpus
		tenJobs[id]++
	}
	m.gpusBusy.Set(float64(gpus))
	m.runningJobs.Set(float64(len(running)))
	// Every interned tenant's gauge is refreshed, including back to
	// zero, so a tenant fully preempted by a fault reads 0 rather than
	// its stale last value.
	ids := make([]string, 0, len(m.ten))
	for id := range m.ten {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		m.ten[id].running.Set(float64(tenJobs[id]))
		m.ten[id].gpusBusy.Set(float64(tenGPUs[id]))
	}
	m.remoteMBps.Set(remoteMBps)
	if c := capacity.MBpsValue(); c > 0 {
		m.remoteUtil.Set(remoteMBps / c)
	}
}
