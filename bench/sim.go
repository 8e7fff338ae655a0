package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/unit"
	"repro/internal/workload"
)

// simArm is one (scheduler, cache system) cell of the Figure 12 matrix.
type simArm struct {
	kind   policy.SchedulerKind
	system policy.CacheSystem
}

func (a simArm) name() string {
	return strings.ToLower(a.kind.String()) + "-" + strings.ToLower(a.system.String())
}

// simShape sizes a sim-* workload. The full shape is the Figure 12
// trace on the 400-GPU cluster preset (250 GiB cache per GPU, 32 Gbps
// egress); the smoke test shrinks jobs and cluster, never the arms.
type simShape struct {
	jobs    int
	window  unit.Duration
	cluster core.Cluster
	arms    []simArm
	// refViews is the work one pass over the seed-42 trace does, in job
	// views (see viewCounter). Traces differ in work by +-15 % from
	// seed to seed; pass times and allocations are reported scaled to
	// this much work, so that seeds are comparable. 0 scales nothing.
	refViews float64
	// kernels is how many calibration kernels (4 ms each) run before
	// every pass and after the last.
	kernels int
}

func fig12Cluster(gpus int) core.Cluster {
	return core.Cluster{GPUs: gpus, Cache: unit.GiB(250) * unit.Bytes(gpus), RemoteIO: unit.Gbps(32)}
}

func fullSim(arms []simArm, refViews float64) simShape {
	return simShape{jobs: 1000, window: 12 * unit.Hour, cluster: fig12Cluster(400), arms: arms, refViews: refViews, kernels: 60}
}

// The seed-42 Figure 12 trace presents this many job views per pass.
const (
	maxminRefViews = 521_095
	greedyRefViews = 4_065_257
)

func maxminArms() []simArm { return []simArm{{policy.GavelKind, policy.SiloD}} }

func greedyArms() []simArm {
	var arms []simArm
	for _, k := range []policy.SchedulerKind{policy.FIFOKind, policy.SJFKind} {
		for _, cs := range policy.AllCacheSystems() {
			arms = append(arms, simArm{k, cs})
		}
	}
	return arms
}

// armOutcome is what one sim.Run produced, reduced to what the checks
// and metrics read; the exported part is golden.json's schema.
type armOutcome struct {
	AvgJCTMin   float64 `json:"avg_jct_min"`
	MakespanMin float64 `json:"makespan_min"`
	Events      int     `json:"events"`
	Jobs        int     `json:"jobs"`
	JobsFNV     string  `json:"jobs_fnv"` // FNV-1a over every job's submit/start/finish bits

	seconds     float64
	reschedules int64
	views       int // counting pass only
	pol         *tracedPolicy
}

// bits renders the outcome so that two render equal only if every
// simulated number matches to the last bit.
func (o armOutcome) bits() string {
	return fmt.Sprintf("avg_jct_min=%v(%016x) makespan_min=%v(%016x) events=%d jobs=%d jobs_fnv=%s",
		o.AvgJCTMin, math.Float64bits(o.AvgJCTMin), o.MakespanMin, math.Float64bits(o.MakespanMin),
		o.Events, o.Jobs, o.JobsFNV)
}

func outcomeOf(r *sim.Result) armOutcome {
	h := uint64(fnvOffset)
	for _, j := range r.Jobs {
		for _, v := range []unit.Time{j.Submit, j.Start, j.Finish} {
			h = fnvMix(h, math.Float64bits(float64(v)))
		}
	}
	return armOutcome{
		AvgJCTMin:   r.AvgJCT().Minutes(),
		MakespanMin: r.Makespan.Minutes(),
		Events:      r.Events,
		Jobs:        len(r.Jobs),
		JobsFNV:     fmt.Sprintf("%016x", h),
	}
}

// viewCounter sums the job views the engine presents to the policy: the
// work a pass does, as a count no implementation change can move while
// the simulated behaviour stays the same. It forwards no optional
// capability, so the engine's memo never skips a solve and every
// reschedule is counted (skipping or not gives the same bits; that is
// the repo's own incremental-equals-full gate, and the passes measured
// afterwards with the memo on are checked against this one).
type viewCounter struct {
	inner core.Policy
	views int
}

func (c *viewCounter) Name() string { return c.inner.Name() }

func (c *viewCounter) Assign(cl core.Cluster, now unit.Time, jobs []core.JobView) core.Assignment {
	c.views += len(jobs)
	return c.inner.Assign(cl, now, jobs)
}

// simPass runs every arm once, fanned through runner.Map with
// Workers: 0 exactly as `silodsim -exp fig12` does, each on a fresh
// policy.Build. With a tracer every arm is a trace of its own
// (sim.arm > policy.build, sim.run > policy.assign...) hanging off the
// pass span, so parallel arms never share a trace.
func simPass(sh simShape, seed int64, jobs []workload.JobSpec, tr *tracer, count bool) (float64, []armOutcome, error) {
	passSpan := tr.begin("sim.pass", -1, tr.newTrace())
	t0 := time.Now()
	outs, err := runner.Map(runner.Options{Seed: seed}, len(sh.arms), func(a runner.Arm) (armOutcome, error) {
		arm := sh.arms[a.Index]
		trace := tr.newTrace()
		armSpan := tr.begin("sim.arm", passSpan, trace)
		buildSpan := tr.begin("policy.build", armSpan, trace)
		bare, err := policy.Build(arm.kind, arm.system, seed)
		tr.end(buildSpan, 0)
		if err != nil {
			return armOutcome{}, err
		}
		cfg := sim.Config{Cluster: sh.cluster, System: arm.system, Engine: sim.Fluid, Seed: seed}
		if tr != nil {
			// The registry is the only way to read the reschedule count
			// from outside; it rides in the traced run only.
			cfg.Metrics = metrics.NewRegistry("bench")
		}
		runSpan := tr.begin("sim.run", armSpan, trace)
		var wrapped *tracedPolicy
		var counter *viewCounter
		if count {
			counter = &viewCounter{inner: bare}
			cfg.Policy = counter
		} else {
			cfg.Policy, wrapped = wrapPolicy(bare, tr, runSpan, trace)
		}
		s0 := time.Now()
		res, err := sim.Run(cfg, jobs)
		secs := time.Since(s0).Seconds()
		tr.end(runSpan, 0)
		tr.end(armSpan, 0)
		if err != nil {
			return armOutcome{}, fmt.Errorf("%s: %w", arm.name(), err)
		}
		out := outcomeOf(res)
		out.seconds = secs
		out.pol = wrapped
		if counter != nil {
			out.views = counter.views
		}
		if cfg.Metrics != nil {
			out.reschedules = cfg.Metrics.Counter("silod_sim_reschedules_total").Value()
		}
		return out, nil
	})
	wall := time.Since(t0).Seconds()
	tr.end(passSpan, 0)
	return wall, outs, err
}

// runSim measures one sim-* workload: generate the trace, one warm-up
// pass that also counts the trace's work, then passes until the limit.
// Every pass must reproduce the warm-up pass bit for bit.
func runSim(name string, sh simShape, seed int64, lim limit, tr *tracer) (*phase, error) {
	ph := newPhase()
	start := time.Now()
	genSpan := tr.begin("workload.generate", -1, tr.newTrace())
	jobs, err := workload.Generate(workload.DefaultTraceConfig(seed, sh.jobs, sh.window))
	tr.end(genSpan, 0)
	if err != nil {
		return nil, err
	}
	_, ref, err := simPass(sh, seed, jobs, nil, true)
	if err != nil {
		return nil, err
	}
	ph.setupS = time.Since(start).Seconds()
	var views float64
	for _, o := range ref {
		views += float64(o.views)
	}
	if sh.refViews > 0 {
		ph.workScale = sh.refViews / views
	}
	cal := newCalibrator()

	var last []armOutcome
	armSecs := make([][]float64, len(sh.arms))
	before := totalAllocMB()
	for began := time.Now(); lim.more(len(ph.ops), began); {
		cal.sample(sh.kernels)
		wall, outs, err := simPass(sh, seed, jobs, tr, false)
		if err != nil {
			return nil, err
		}
		ph.ops = append(ph.ops, wall)
		ph.attempted += len(outs)
		for i, o := range outs {
			armSecs[i] = append(armSecs[i], o.seconds)
			if o.bits() != ref[i].bits() {
				ph.failed++
				ph.fail("%s pass %d arm %s: %s differs from warm-up pass %s",
					name, len(ph.ops), sh.arms[i].name(), o.bits(), ref[i].bits())
			}
			if o.Jobs != len(jobs) {
				ph.fail("%s arm %s finished %d of %d jobs", name, sh.arms[i].name(), o.Jobs, len(jobs))
			}
		}
		last = outs
	}
	ph.allocMB = totalAllocMB() - before
	ph.allocOps = len(ph.ops)
	ph.turnaround = ph.ops
	cal.sample(sh.kernels)
	ph.speed = cal.speed()

	ph.simulated = make(map[string]armOutcome, len(sh.arms))
	var bits []string
	var jct, makespan, events float64
	var armTotal float64
	for i, o := range ref {
		ph.simulated[sh.arms[i].name()] = o
		bits = append(bits, o.bits())
		jct += o.AvgJCTMin
		makespan += o.MakespanMin
		events += float64(o.Events)
	}
	ph.fingerprint = strings.Join(bits, "; ")

	n := float64(len(sh.arms))
	ph.layer.set("sim.wall_s", stats.Median(ph.ops), len(ph.ops))
	ph.layer.set("sim.avg_jct_min", jct/n, len(sh.arms))
	ph.layer.set("sim.makespan_min", makespan/n, len(sh.arms))
	ph.layer.set("sim.events", events, 1)
	ph.layer.set("sim.job_views", views, 1)
	for i, arm := range sh.arms {
		ph.layer.set("sim.arm_s."+arm.name(), stats.Median(armSecs[i]), len(armSecs[i]))
		armTotal += stats.Sum(armSecs[i])
	}
	workers := min(runtime.GOMAXPROCS(0), len(sh.arms))
	ph.layer.set("runner.workers", float64(workers), 1)
	if len(sh.arms) > 1 {
		ph.layer.set("runner.parallel_efficiency", ratio(armTotal, float64(workers)*stats.Sum(ph.ops)), len(ph.ops))
	}
	if tr == nil {
		return ph, nil
	}

	var resched float64
	for _, o := range last {
		resched += float64(o.reschedules)
		ph.assignJobs = append(ph.assignJobs, o.pol.jobs...)
		if len(o.pol.big.views) > len(ph.probe.views) {
			ph.probe = o.pol.big
		}
	}
	ph.solveAttempts = resched
	spans := tr.snapshot()
	runSelf := selfByName(spans, selfTimes(spans), "sim.run") / float64(len(ph.ops))
	ph.layer.set("sim.reschedules", resched, 1)
	ph.layer.set("sim.run_self_s", runSelf, len(ph.ops))
	ph.layer.set("sim.us_per_event", ratio(runSelf*1e6, events), len(ph.ops))
	return ph, nil
}
