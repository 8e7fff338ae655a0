// Package sim is the event-driven cluster simulator the evaluation runs
// on — the analogue of the paper's ~5,200-line Go simulator (§7.2). It
// simulates job submission, scheduling rounds, data loading and GPU
// compute, with two engines:
//
//   - The fluid engine advances running jobs analytically at their
//     closed-form throughput between scheduling events and epoch
//     boundaries. It captures uniform caching's delayed effectiveness
//     exactly (hit ratios use the epoch-start cache snapshot) and
//     models Alluxio's LRU with a Che-style approximation. It scales to
//     400-GPU, multi-week traces.
//
//   - The batch engine simulates every block access through the real
//     cache pools (QuotaPool / LRUPool) with a pipelined loader+compute
//     model per job — the paper's "granularity of mini-batch". It is
//     used for the micro-benchmarks, curriculum learning, and for
//     validating the fluid engine's fidelity.
//
// Both embed one chassis (engine.go) that owns what does not depend on
// how time advances: the remote-IO throttle, applying a round's grants,
// the fault drain and the job bookkeeping.
package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/estimator"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/unit"
	"repro/internal/workload"
)

// Engine selects the simulation engine.
// silod:enum
type Engine int

// The available engines.
const (
	Fluid Engine = iota
	Batch
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	if e == Batch {
		return "batch"
	}
	return "fluid"
}

const (
	// blockSize is the batch engine's cache block granularity.
	blockSize = dataset.DefaultBlockSize
	// maxSimTime is the runaway guard: a run whose clock passes it
	// aborts with an error.
	maxSimTime = 10 * 365 * unit.Day
)

// Config parameterizes a simulation run.
type Config struct {
	Cluster core.Cluster
	Policy  core.Policy
	// System tells the simulator which cache mechanism backs the
	// policy's quotas (LRU for Alluxio, private per-job quota caches
	// for CoorDL, shared per-dataset quota caches otherwise).
	System policy.CacheSystem
	Engine Engine
	// ReschedInterval is how often the policy re-runs in addition to
	// arrival/completion events; zero means 10 simulated minutes.
	ReschedInterval unit.Duration
	// MetricsInterval is the timeline sampling period; zero means the
	// rescheduling interval.
	MetricsInterval unit.Duration
	// Seed drives all stochastic elements (eviction, shuffles).
	Seed int64
	// FullResolve switches off the three fast paths: core.Round's
	// solve memo, the fluid engine's per-step rate memo and the Che
	// fixed point's early exit. Results are byte-identical either way —
	// this is the reference trajectory the identity tests diff the fast
	// paths against (docs/performance.md has each path's traffic).
	FullResolve bool
	// WorkConserving lets IO-bottlenecked jobs share any unallocated
	// remote bandwidth (true matches real throttlers; the §7.2
	// "disable IO control" ablation also uses it). Default true; set
	// DisableWorkConserving to turn off.
	DisableWorkConserving bool
	// DisableIOControl ignores the policy's remote IO allocations and
	// divides bandwidth by provider fair share (the §7.2 ablation).
	DisableIOControl bool
	// EnablePrefetch lets idle egress bandwidth fill datasets the
	// policy has funded but whose jobs are not running — the
	// Hoard-style extension (fluid engine only). Pair with a
	// queue-aware allocator (policy.GreedyAllocator.PrefetchQueued) so
	// queued jobs' datasets actually receive quotas.
	EnablePrefetch bool
	// Servers and GPUsPerServer, when both positive, enable server
	// placement tracking in the fluid engine: gangs are placed with
	// pack-first placement and the Result reports how many spanned
	// multiple servers. Placement is observational — the storage fabric
	// serves peer reads at local speed (Figure 3), so it does not
	// change performance — but it validates that the flat-pool
	// abstraction maps onto physical servers. Servers*GPUsPerServer
	// must equal Cluster.GPUs.
	Servers       int
	GPUsPerServer int
	// Faults, when non-nil, is the deterministic fault schedule the run
	// replays: capacity shocks (GPU-node loss, cache loss, egress
	// degradation) and recoveries land as first-class events that
	// trigger a scheduling round against the degraded capacity. The
	// schedule is validated against the cluster before the run starts.
	Faults *faults.Schedule
	// Metrics, when non-nil, receives run-wide counters, gauges and
	// histograms (cache hit/miss bytes, reschedules, JCT distribution —
	// see docs/observability.md). Nil disables instrumentation at zero
	// cost.
	Metrics *metrics.Registry
	// Timeline, when non-nil, records per-job lifecycle events (submit,
	// schedule, preempt, cache_alloc, io_alloc, epoch, complete) stamped
	// with simulated time.
	Timeline *metrics.Timeline
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ReschedInterval <= 0 {
		out.ReschedInterval = 10 * unit.Minute
	}
	if out.MetricsInterval <= 0 {
		out.MetricsInterval = out.ReschedInterval
	}
	return out
}

// JobStat is the per-job outcome.
type JobStat struct {
	ID     string
	Submit unit.Time
	Start  unit.Time
	Finish unit.Time
}

// JCT is the job completion time (finish minus submit).
func (s JobStat) JCT() unit.Duration { return s.Finish.Sub(s.Submit) }

// QueueDelay is the time spent waiting before first execution.
func (s JobStat) QueueDelay() unit.Duration { return s.Start.Sub(s.Submit) }

// Result aggregates a run.
type Result struct {
	Jobs     []JobStat
	Makespan unit.Duration
	// Timelines, keyed by series name: "throughput" (total actual MB/s),
	// "ideal" (total ideal MB/s of running jobs), "remoteio" (MB/s used),
	// "fairness" (Eq. 8 objective over running jobs), "cache_alloc" and
	// "cache_effective" (GB).
	Timelines map[string]*stats.Series
	// Events counts engine-internal events, for performance reporting.
	Events int
	// PlacedGangs and SpannedGangs report placement statistics when
	// Config.Servers is set: how many gang placements occurred and how
	// many had to span multiple servers.
	PlacedGangs  int
	SpannedGangs int
}

// AvgJCT is the mean job completion time.
func (r *Result) AvgJCT() unit.Duration {
	if len(r.Jobs) == 0 {
		return 0
	}
	var s float64
	for _, j := range r.Jobs {
		s += float64(j.JCT())
	}
	return unit.Duration(s / float64(len(r.Jobs)))
}

// JCTs returns all job completion times in minutes, for CDFs.
func (r *Result) JCTs() []float64 {
	out := make([]float64, len(r.Jobs))
	for i, j := range r.Jobs {
		out[i] = j.JCT().Minutes()
	}
	return out
}

// AvgFairness is the time-weighted mean of the fairness-ratio timeline.
func (r *Result) AvgFairness() float64 {
	s, ok := r.Timelines["fairness"]
	if !ok {
		return 0
	}
	return s.MeanValue()
}

// Run executes the simulation for the given trace.
// silod:sim-root
func Run(cfg Config, jobs []workload.JobSpec) (*Result, error) {
	c := cfg.withDefaults()
	if err := c.Cluster.Validate(); err != nil {
		return nil, err
	}
	if c.Policy == nil {
		return nil, fmt.Errorf("sim: nil policy")
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, err
		}
		if j.NumGPUs > c.Cluster.GPUs {
			return nil, fmt.Errorf("sim: job %s needs %d GPUs, cluster has %d", j.ID, j.NumGPUs, c.Cluster.GPUs)
		}
	}
	if err := c.Faults.Validate(c.Cluster); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if c.Faults != nil {
		known := make(map[string]bool, len(jobs))
		for _, j := range jobs {
			known[j.ID] = true
		}
		for _, ev := range c.Faults.Events {
			if ev.Kind == faults.KindJobCrash && !known[ev.Job] {
				return nil, fmt.Errorf("sim: fault schedule crashes unknown job %q", ev.Job)
			}
		}
	}
	if c.Servers > 0 || c.GPUsPerServer > 0 {
		if c.Servers*c.GPUsPerServer != c.Cluster.GPUs {
			return nil, fmt.Errorf("sim: %d servers x %d GPUs != cluster's %d GPUs",
				c.Servers, c.GPUsPerServer, c.Cluster.GPUs)
		}
	}
	switch c.Engine {
	case Batch:
		return runBatch(c, jobs)
	default:
		return runFluid(c, jobs)
	}
}

// orderSpecs returns a copy of the trace in (Submit, ID) order — the
// order both engines create, arrive and scan jobs in.
func orderSpecs(specs []workload.JobSpec) []workload.JobSpec {
	ordered := append([]workload.JobSpec(nil), specs...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Submit < ordered[j].Submit {
			return true
		}
		if ordered[j].Submit < ordered[i].Submit {
			return false
		}
		return ordered[i].ID < ordered[j].ID
	})
	return ordered
}

// newSeries returns the empty Result.Timelines both engines fill.
func newSeries() map[string]*stats.Series {
	out := make(map[string]*stats.Series, 6)
	for _, name := range []string{"throughput", "ideal", "remoteio", "fairness", "cache_alloc", "cache_effective"} {
		out[name] = &stats.Series{Name: name}
	}
	return out
}

// jobSet is the engine-shared job table: every job of the run in
// (Submit, ID) order, plus the scratch its two scans reuse (the engines
// are single-threaded).
type jobSet struct {
	jobs   []*jobRT
	actBuf []*jobRT
	runBuf []*jobRT
}

// active returns the jobs that have arrived by now and are not
// finished. The slice is scratch, valid until the next call.
func (s *jobSet) active(now unit.Time) []*jobRT {
	out := s.actBuf[:0]
	for _, j := range s.jobs {
		if !j.done && j.spec.Submit <= now {
			out = append(out, j)
		}
	}
	s.actBuf = out
	return out
}

// runningJobs returns the jobs currently holding GPUs. The slice is
// scratch, valid until the next call.
func (s *jobSet) runningJobs() []*jobRT {
	out := s.runBuf[:0]
	for _, j := range s.jobs {
		if j.running && !j.done {
			out = append(out, j)
		}
	}
	s.runBuf = out
	return out
}

// jobRT is the engine-shared per-job runtime state.
type jobRT struct {
	spec    workload.JobSpec
	profile estimator.JobProfile
	dsKey   string // cache accounting key (dataset, or job for CoorDL)

	remaining unit.Bytes // bytes of training work left
	attained  unit.Bytes
	running   bool
	started   bool
	start     unit.Time
	done      bool

	gpus     int
	remoteIO unit.Bandwidth // scheduler-allocated (0 when uncontrolled)

	// Fluid-engine cache state: effective cached bytes for the current
	// epoch (the epoch-start snapshot, §6 "delayed effectiveness") and
	// bytes left to read in the current epoch. epochSize is the full
	// length of the current epoch, so epochSize-epochLeft is the
	// progress a fault-driven rollback discards.
	effCached unit.Bytes
	epochLeft unit.Bytes
	epochSize unit.Bytes
}

// rollbackEpoch discards the current epoch's partial progress — the
// crash/preemption recovery model: work is checkpointed at epoch
// boundaries, so a job losing its GPUs mid-epoch resumes from the last
// boundary (§6 "Fault tolerance").
func (j *jobRT) rollbackEpoch() {
	lost := j.epochSize - j.epochLeft
	if lost <= 0 {
		return
	}
	j.remaining += lost
	j.attained -= lost
	if j.attained < 0 {
		j.attained = 0
	}
	j.epochLeft = j.epochSize
}

// throughputAt is the job's end-to-end throughput when it may fetch
// remotely at rate remote and hit of its reads are served from cache:
// min(f*, remote/(1-hit)), the hit-ratio form of Eq. 3-4.
func (j *jobRT) throughputAt(remote unit.Bandwidth, hit float64) unit.Bandwidth {
	fstar := j.profile.IdealThroughput
	miss := 1 - hit
	if miss <= 1e-12 {
		return fstar
	}
	if f := unit.Bandwidth(float64(remote) / miss); f < fstar {
		return f
	}
	return fstar
}

// view builds the scheduler's JobView.
func (j *jobRT) view() core.JobView {
	return core.JobView{
		ID:              j.spec.ID,
		NumGPUs:         j.spec.NumGPUs,
		Profile:         j.profile,
		DatasetKey:      j.dsKey,
		DatasetSize:     j.spec.Dataset.Size,
		RemainingBytes:  j.remaining,
		AttainedBytes:   j.attained,
		EffectiveCached: j.effCached,
		Tenant:          j.spec.Tenant,
		SLO:             j.spec.SLO,
		Submit:          j.spec.Submit,
		Running:         j.running,
		Irregular:       j.spec.Curriculum != nil,
	}
}

// newJobRT initializes runtime state for a spec.
func newJobRT(spec workload.JobSpec, system policy.CacheSystem) *jobRT {
	key := spec.Dataset.Name
	if system.PrivateCaches() {
		key = policy.CoorDLKey(spec.ID)
	}
	first := minBytes(spec.Dataset.Size, spec.TotalBytes())
	return &jobRT{
		spec: spec,
		profile: estimator.JobProfile{
			IdealThroughput: spec.IdealThroughput(),
			DatasetSize:     spec.Dataset.Size,
		},
		dsKey:     key,
		remaining: spec.TotalBytes(),
		epochLeft: first,
		epochSize: first,
	}
}

func minBytes(a, b unit.Bytes) unit.Bytes {
	if a < b {
		return a
	}
	return b
}

// fairnessRatio computes the Eq. 8 objective over the running jobs:
// min_j perf_j / perf_j(R_equal), where R_equal divides the cluster's
// storage resources equally among the running jobs — the same
// normalization the max-min storage program optimizes, so the series
// directly tracks how well each system serves Gavel's objective.
func fairnessRatio(cl core.Cluster, running []*jobRT, perfOf func(*jobRT) unit.Bandwidth) float64 {
	if len(running) == 0 {
		return 1
	}
	n := float64(len(running))
	minRatio := math.Inf(1)
	for _, j := range running {
		equal := estimator.Resources{
			Cache:    unit.Bytes(float64(cl.Cache) / n),
			RemoteIO: unit.Bandwidth(float64(cl.RemoteIO) / n),
		}
		pe := float64(j.profile.Perf(equal))
		if pe <= 0 {
			continue
		}
		r := float64(perfOf(j)) / pe
		if r < minRatio {
			minRatio = r
		}
	}
	if math.IsInf(minRatio, 1) {
		return 1
	}
	return minRatio
}
