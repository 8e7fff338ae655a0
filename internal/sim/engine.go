package sim

import (
	"sort"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/remoteio"
	"repro/internal/stats"
	"repro/internal/unit"
)

// engine is the chassis both engines embed: the job table, the round
// driver, the fault injector and the degraded capacity it yields, the
// result and metric sinks, and the remote-IO throttle with its scratch.
// Everything here is independent of how time advances; the clock, the
// cache model and the per-job pipeline stay in batchSim and fluidSim.
type engine struct {
	jobSet
	byID  map[string]*jobRT
	cfg   Config
	round *core.Round

	// inj replays the fault schedule; eff is the degraded capacity every
	// scheduling decision uses instead of cfg.Cluster. faultPreempt
	// marks the next round as fault-driven: the jobs it stops lost their
	// node, so their epoch progress rolls back.
	inj          *faults.Injector
	eff          core.Cluster
	faultPreempt bool

	res        *Result
	series     map[string]*stats.Series
	met        *simMetrics
	finished   int
	lastFinish unit.Time

	// Scratch reused across rounds and integration steps (the engines
	// are single-threaded); each buffer is valid only until the method
	// that filled it runs again.
	viewsBuf   []core.JobView
	keysBuf    []string
	hitsBuf    []float64
	grantsBuf  []unit.Bandwidth
	fillBuf    []float64
	demandsBuf []float64
	idsBuf     []string
	divider    remoteio.Divider
}

// newEngine builds the chassis over the run's jobs, which the caller
// created in orderSpecs order.
func newEngine(cfg Config, jobs []*jobRT) (engine, error) {
	e := engine{
		jobSet: jobSet{jobs: jobs},
		byID:   make(map[string]*jobRT, len(jobs)),
		cfg:    cfg,
		round:  core.NewRound(cfg.Policy, cfg.FullResolve),
		series: newSeries(),
		met:    newSimMetrics(cfg),
	}
	e.res = &Result{Timelines: e.series}
	for _, j := range jobs {
		e.byID[j.spec.ID] = j
	}
	e.met.initTenants(jobs)
	e.met.submitAll(jobs)
	var err error
	if e.inj, err = faults.NewInjector(cfg.Cluster, cfg.Faults, cfg.Metrics, cfg.Timeline); err != nil {
		return engine{}, err
	}
	e.eff = e.inj.Effective()
	return e, nil
}

// remoteIOGrants divides the effective egress capacity over the running
// jobs — the one throttle both engines apply, which is why they agree
// (the Table 6 fidelity result). A job's demand is its analytic miss
// traffic f*·(1-hit), raised to floor[i] when floor is non-nil (the
// batch engine's in-flight fetches). The policy's allocations are
// honoured and unallocated egress is topped up over the jobs whose
// demand exceeds their grant (§6). When no allocation is honoured (the
// policy made none, or DisableIOControl) the provider's static equal
// split applies instead (§2.1, §7.2). The result is scratch, valid
// until the next call.
//
// Called from jobRates and from every Che fixed-point
// iteration; reuses the chassis's grant/demand scratch buffers.
func (e *engine) remoteIOGrants(running []*jobRT, hits, floor []float64) []unit.Bandwidth {
	fill := resize(&e.fillBuf, len(running))
	demands := resize(&e.demandsBuf, len(running))
	ids := resize(&e.idsBuf, len(running))
	anyAlloc := false
	for i, j := range running {
		fill[i] = 0
		demands[i] = float64(j.profile.IdealThroughput) * (1 - hits[i])
		if floor != nil && floor[i] > demands[i] {
			demands[i] = floor[i]
		}
		ids[i] = j.spec.ID
		if !e.cfg.DisableIOControl && j.remoteIO > 0 {
			fill[i] = float64(j.remoteIO)
			anyAlloc = true
		}
	}
	switch {
	case !anyAlloc:
		remoteio.EqualSplit(fill, float64(e.eff.RemoteIO), demands)
	case !e.cfg.DisableWorkConserving:
		e.divider.TopUp(fill, float64(e.eff.RemoteIO), demands, ids)
	}
	grants := resize(&e.grantsBuf, len(running))
	for i, g := range fill {
		grants[i] = unit.Bandwidth(g)
	}
	return grants
}

// applyRemoteIO copies the assignment's remote-IO allocations onto the
// active jobs, whose views the assignment was solved over in act's
// order, recording each change on the timeline.
func (e *engine) applyRemoteIO(now unit.Time, act []*jobRT, a core.Assignment) {
	for i, j := range act {
		bw := a.RemoteIO[i]
		if bw.Changed(j.remoteIO) {
			e.met.tl.RecordAt(float64(now), metrics.EventIOAlloc, j.spec.ID, float64(bw), "bytes_per_sec")
		}
		j.remoteIO = bw
	}
}

// grantGPUs applies one job's GPU grant and reports whether the job
// started or stopped running, so the caller can start or halt its
// pipeline. A job stopped by a fault-driven round lost its node, and
// the preemption is charged to the fault.
func (e *engine) grantGPUs(now unit.Time, j *jobRT, g int) (started, stopped bool) {
	wasRunning := j.running
	j.gpus = g
	j.running = g > 0
	e.met.transition(now, j, wasRunning)
	if j.running && !j.started {
		j.started = true
		j.start = now
	}
	started = j.running && !wasRunning
	stopped = wasRunning && !j.running
	if stopped && e.faultPreempt {
		e.inj.CountPreemptionsSLO(j.spec.SLO, 1)
	}
	return started, stopped
}

// faultReactor is the engine-specific half of fault handling.
type faultReactor interface {
	// cacheResized follows a change of eff.Cache from before: a lost
	// cache node takes a uniform share of every dataset with it,
	// restored capacity comes back empty.
	cacheResized(before unit.Bytes)
	// halt stops whatever pipeline j still has after losing its GPUs or
	// its process. With lostEpoch the node or process died, so the
	// epoch's uncheckpointed progress rolls back too.
	halt(j *jobRT, lostEpoch bool)
}

// drainFaults lands every fault due by now and returns how many there
// were. The caller follows a non-empty batch with a scheduling round,
// which re-solves against the degraded (or recovered) eff.
func (e *engine) drainFaults(now unit.Time, r faultReactor) int {
	n := 0
	for {
		before := e.inj.Effective()
		ev, ok := e.inj.Next(now)
		if !ok {
			return n
		}
		n++
		e.eff = e.inj.Effective()
		switch ev.Kind {
		case faults.KindGPULoss:
			// The next round re-solves with fewer GPUs; whoever it
			// stops was on the lost node and rolls back an epoch.
			e.faultPreempt = true
		case faults.KindCacheLoss, faults.KindCacheRestore:
			r.cacheResized(before.Cache)
		case faults.KindJobCrash:
			// The job loses its GPUs and its current epoch's progress,
			// then re-enters the queue for a later round to restart. The
			// cache survives — it lives on other nodes (§6).
			j := e.byID[ev.Job]
			if j.done || !j.started {
				break
			}
			if j.running {
				// No round is running, so the preemption accounting
				// grantGPUs would do happens here.
				j.running = false
				j.gpus = 0
				e.met.preempt(now, j, "crash")
				e.inj.CountPreemptionsSLO(j.spec.SLO, 1)
			}
			r.halt(j, true)
		case faults.KindGPURestore, faults.KindIOLoss, faults.KindIORestore:
			// Capacity only: the next round hands out restored GPUs and
			// the throttle reads eff.RemoteIO.
		}
	}
}

// complete retires a job that trained its last byte at now.
func (e *engine) complete(now unit.Time, j *jobRT) {
	j.done = true
	j.running = false
	j.remaining = 0
	e.finished++
	e.lastFinish = now // simulated time never runs backwards
	st := JobStat{ID: j.spec.ID, Submit: j.spec.Submit, Start: j.start, Finish: now}
	e.res.Jobs = append(e.res.Jobs, st)
	e.met.jobDone(now, st, j.spec.Tenant)
}

// finish closes the run's accounts once every job has completed.
func (e *engine) finish(now unit.Time) *Result {
	e.inj.Finish(now)
	e.met.flushBytes()
	e.met.flushTenantTrained(e.jobs)
	e.res.Makespan = e.lastFinish.Sub(0)
	sort.Slice(e.res.Jobs, func(i, j int) bool { return e.res.Jobs[i].ID < e.res.Jobs[j].ID })
	return e.res
}
