package experiments

import (
	"fmt"

	"repro/internal/core"

	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/unit"
	"repro/internal/workload"
)

// DesignAblationResult holds the design-choice ablation: each row
// disables one mechanism of SiloD's greedy co-design and reruns the
// 96-GPU FIFO experiment.
type DesignAblationResult struct {
	Rows []DesignAblationRow
}

// DesignAblationRow is one ablated variant.
type DesignAblationRow struct {
	Name     string
	AvgJCT   unit.Duration
	Makespan unit.Duration
}

// AblationDesignChoices quantifies the design decisions DESIGN.md calls
// out, against the full FIFO-SiloD configuration:
//
//   - partial caching (vs whole-dataset-only placement),
//   - warm-data hysteresis (vs churn-prone pure efficiency ordering),
//   - the warm-up investment pass (vs plain fair-share remote IO),
//   - work-conserving throttling (vs strict allocation enforcement).
//
// silod:sim-root
func AblationDesignChoices(o Options) (*DesignAblationResult, error) {
	jobs, err := traceFor(o, 96, 480, 24*unit.Hour)
	if err != nil {
		return nil, err
	}
	cl := clusterPreset(96)
	variants := []struct {
		name   string
		alloc  policy.GreedyAllocator
		mutate func(*sim.Config)
	}{
		{name: "full co-design"},
		{name: "no partial caching", alloc: policy.GreedyAllocator{WholeDatasetsOnly: true}},
		{name: "no warm-data hysteresis", alloc: policy.GreedyAllocator{NoHysteresis: true}},
		{name: "no warm-up investment", alloc: policy.GreedyAllocator{PlainFairIO: true}},
		{name: "no work conservation", mutate: func(c *sim.Config) { c.DisableWorkConserving = true }},
	}
	rows, err := mapArms(o, len(variants), func(i int) (DesignAblationRow, error) {
		v := variants[i] // a copy: each arm owns its allocator's workspace
		pol := &policy.FIFO{Storage: &v.alloc}
		cfg := sim.Config{
			Cluster: cl, Policy: pol, System: policy.SiloD,
			Engine: sim.Fluid, Seed: o.seed(), FullResolve: o.FullResolve,
		}
		if v.mutate != nil {
			v.mutate(&cfg)
		}
		r, err := sim.Run(cfg, jobs)
		if err != nil {
			return DesignAblationRow{}, fmt.Errorf("ablation %q: %w", v.name, err)
		}
		return DesignAblationRow{Name: v.name, AvgJCT: r.AvgJCT(), Makespan: r.Makespan}, nil
	})
	if err != nil {
		return nil, err
	}
	return &DesignAblationResult{Rows: rows}, nil
}

// Table renders the design ablation.
func (r *DesignAblationResult) Table() *report.Table {
	t := report.NewTable("Design ablation: FIFO-SiloD on the 96-GPU trace",
		"Variant", "Avg JCT (min)", "vs full", "Makespan (min)")
	base := r.Rows[0].AvgJCT.Minutes()
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			fmt.Sprintf("%.0f", row.AvgJCT.Minutes()),
			fmt.Sprintf("%+.1f%%", 100*(row.AvgJCT.Minutes()-base)/base),
			fmt.Sprintf("%.0f", row.Makespan.Minutes()))
	}
	return t
}

// EngineCostResult compares the two simulation engines on the same
// workload: wall time, internal events, and result agreement.
type EngineCostResult struct {
	FluidJCT    unit.Duration
	BatchJCT    unit.Duration
	FluidEvents int
	BatchEvents int
}

// AblationEngineCost runs the micro-benchmark on both engines and
// reports the cost/fidelity trade-off that justifies having a fluid
// fast-forward mode at all.
// silod:sim-root
func AblationEngineCost(o Options) (*EngineCostResult, error) {
	jobs, err := MicroBenchJobs()
	if err != nil {
		return nil, err
	}
	cl := MicroCluster()
	engines := []sim.Engine{sim.Fluid, sim.Batch}
	arms, err := mapArms(o, len(engines), func(i int) (*sim.Result, error) {
		pol, err := policy.Build(policy.FIFOKind, policy.SiloD, o.seed())
		if err != nil {
			return nil, err
		}
		return sim.Run(sim.Config{Cluster: cl, Policy: pol, System: policy.SiloD,
			Engine: engines[i], Seed: o.seed(), FullResolve: o.FullResolve}, jobs)
	})
	if err != nil {
		return nil, err
	}
	return &EngineCostResult{
		FluidJCT: arms[0].AvgJCT(), FluidEvents: arms[0].Events,
		BatchJCT: arms[1].AvgJCT(), BatchEvents: arms[1].Events,
	}, nil
}

// Table renders the engine comparison.
func (r *EngineCostResult) Table() *report.Table {
	t := report.NewTable("Engine cost: fluid vs block-level on the micro-benchmark (FIFO-SiloD)",
		"Engine", "Avg JCT (min)", "Events")
	t.AddRowf("fluid", r.FluidJCT.Minutes(), r.FluidEvents)
	t.AddRowf("batch", r.BatchJCT.Minutes(), r.BatchEvents)
	return t
}

// PrefetchResult compares FIFO-SiloD with and without the Hoard-style
// dataset prefetching extension.
type PrefetchResult struct {
	Baseline *sim.Result
	Prefetch *sim.Result
}

// AblationPrefetch evaluates the prefetching extension (related work
// [58]): queued jobs' datasets receive leftover cache and are warmed
// with idle egress bandwidth, so jobs start their first epoch already
// cached. Hoard-style prefetching "is useful when there is redundant
// remote IO bandwidth" — and needs spare cache too — so the experiment
// uses a cache-rich 96-GPU configuration (4x the usual provisioning);
// in the cache-scarce default the extension is a strict no-op, which
// the tests also pin.
// silod:sim-root
func AblationPrefetch(o Options) (*PrefetchResult, error) {
	jobs, err := traceFor(o, 96, 480, 24*unit.Hour)
	if err != nil {
		return nil, err
	}
	cl := clusterPreset(96)
	cl.Cache *= 4
	arms, err := mapArms(o, 2, func(i int) (*sim.Result, error) {
		if i == 0 {
			return runOne(o, policy.FIFOKind, policy.SiloD, cl, jobs, nil)
		}
		pol := &policy.FIFO{Storage: &policy.GreedyAllocator{PrefetchQueued: true}}
		return sim.Run(sim.Config{
			Cluster: cl, Policy: pol, System: policy.SiloD,
			Engine: sim.Fluid, Seed: o.seed(), EnablePrefetch: true,
			FullResolve: o.FullResolve,
		}, jobs)
	})
	if err != nil {
		return nil, err
	}
	return &PrefetchResult{Baseline: arms[0], Prefetch: arms[1]}, nil
}

// Table renders the prefetch comparison.
func (r *PrefetchResult) Table() *report.Table {
	t := report.NewTable("Extension: Hoard-style dataset prefetching (FIFO-SiloD, 96 GPUs, cache-rich)",
		"Config", "Avg JCT (min)", "Makespan (min)")
	t.AddRowf("no prefetch", r.Baseline.AvgJCT().Minutes(), r.Baseline.Makespan.Minutes())
	t.AddRowf("prefetch queued datasets", r.Prefetch.AvgJCT().Minutes(), r.Prefetch.Makespan.Minutes())
	return t
}

// ObjectivesResult compares the Gavel objectives the SiloD framework
// supports beyond max-min fairness (§5.2: "This extension can not only
// support the max-min fairness objective but also all other objectives
// supported by Gavel").
type ObjectivesResult struct {
	Rows []ObjectiveRow
}

// ObjectiveRow is one Gavel objective's outcome.
type ObjectiveRow struct {
	Objective policy.GavelObjective
	AvgJCT    unit.Duration
	Makespan  unit.Duration
	Fairness  float64 // windowed average fairness ratio
	P99JCT    float64 // minutes
}

// GavelObjectives runs the 400-GPU trace under each Gavel objective
// with the SiloD-enhanced estimator. Expected shape: the throughput
// objective wins on makespan/JCT, max-min on the fairness ratio, and
// finish-time fairness on tail JCT.
// silod:sim-root
func GavelObjectives(o Options) (*ObjectivesResult, error) {
	jobs, err := traceFor(o, 400, 1000, 12*unit.Hour)
	if err != nil {
		return nil, err
	}
	cl := clusterPreset(400)
	objectives := []policy.GavelObjective{
		policy.MaxMinFairness, policy.TotalThroughput, policy.FinishTimeFairness,
	}
	rows, err := mapArms(o, len(objectives), func(i int) (ObjectiveRow, error) {
		obj := objectives[i]
		pol := &policy.Gavel{Enhanced: true, Objective: obj}
		r, err := sim.Run(sim.Config{
			Cluster: cl, Policy: pol, System: policy.SiloD,
			Engine: sim.Fluid, Seed: o.seed(), FullResolve: o.FullResolve,
		}, jobs)
		if err != nil {
			return ObjectiveRow{}, fmt.Errorf("objective %v: %w", obj, err)
		}
		return ObjectiveRow{
			Objective: obj,
			AvgJCT:    r.AvgJCT(),
			Makespan:  r.Makespan,
			Fairness:  seriesMeanUpTo(r.Timelines["fairness"], (12 * unit.Hour).Minutes()),
			P99JCT:    stats.Percentile(r.JCTs(), 99),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ObjectivesResult{Rows: rows}, nil
}

// Table renders the objective comparison.
func (r *ObjectivesResult) Table() *report.Table {
	t := report.NewTable("Gavel objectives under the SiloD framework (400 GPUs)",
		"Objective", "Avg JCT (min)", "p99 JCT (min)", "Makespan (min)", "Fairness ratio")
	for _, row := range r.Rows {
		t.AddRowf(row.Objective.String(), row.AvgJCT.Minutes(), row.P99JCT,
			row.Makespan.Minutes(), row.Fairness)
	}
	return t
}

// MixedClusterResult is the §6 irregular-partitioning experiment.
type MixedClusterResult struct {
	// RegularJCTPartitioned is the regular jobs' average JCT when
	// curriculum jobs are flagged irregular and partitioned (§6).
	RegularJCTPartitioned unit.Duration
	// RegularJCTNaive is the same when curriculum jobs masquerade as
	// regular (the estimator's assumptions silently violated).
	RegularJCTNaive unit.Duration
	// IrregularJCTPartitioned / IrregularJCTNaive are the curriculum
	// jobs' averages under each regime.
	IrregularJCTPartitioned unit.Duration
	IrregularJCTNaive       unit.Duration
}

// MixedCluster evaluates §6's "handling irregular data access": a
// cluster mixing regular DL jobs with curriculum-learning jobs, run on
// the block-level engine with (a) the framework partitioning irregular
// jobs to a fallback share and (b) the curriculum jobs treated as
// regular. Partitioning shields the regular jobs' estimator-driven
// allocation from the irregular jobs' mis-estimation.
// silod:sim-root
func MixedCluster(o Options) (*MixedClusterResult, error) {
	rn50, err := workload.ModelByName("ResNet-50")
	if err != nil {
		return nil, err
	}
	cur := &workload.CurriculumSpec{StartingPercent: 0.1, Alpha: 2, StepSize: 500}
	mk := func(id string, i int, irregular bool) workload.JobSpec {
		spec := workload.JobSpec{
			ID: id, Model: rn50, NumGPUs: 1,
			Dataset: workload.Dataset{Name: "ds-" + id, Size: unit.GiB(48)},
		}
		spec.NumSteps = int64(3 * float64(spec.Dataset.Size) / float64(spec.StepBytesTotal()))
		if irregular {
			spec.Curriculum = cur
		}
		return spec
	}
	jobs := []workload.JobSpec{
		mk("reg-0", 0, false), mk("reg-1", 1, false), mk("reg-2", 2, false),
		mk("cur-0", 3, true), mk("cur-1", 4, true),
	}
	cl := core.Cluster{GPUs: 5, Cache: unit.GiB(120), RemoteIO: unit.MBpsOf(200)}
	run := func(partition bool) (*sim.Result, error) {
		inner, err := policy.Build(policy.FIFOKind, policy.SiloD, o.seed())
		if err != nil {
			return nil, err
		}
		trace := jobs
		if !partition {
			// Strip the irregular flag path: the framework only
			// partitions jobs the JobView marks irregular, and the
			// simulator derives that from Curriculum != nil; run the
			// inner policy directly so everything is treated regular.
			return sim.Run(sim.Config{Cluster: cl, Policy: inner, System: policy.SiloD,
				Engine: sim.Batch, Seed: o.seed(), FullResolve: o.FullResolve}, trace)
		}
		fw := (&core.Framework{Policy: inner}).AsPolicy()
		return sim.Run(sim.Config{Cluster: cl, Policy: fw, System: policy.SiloD,
			Engine: sim.Batch, Seed: o.seed(), FullResolve: o.FullResolve}, trace)
	}
	arms, err := mapArms(o, 2, func(i int) (*sim.Result, error) {
		return run(i == 0)
	})
	if err != nil {
		return nil, err
	}
	part, naive := arms[0], arms[1]
	avg := func(r *sim.Result, prefix string) unit.Duration {
		var sum float64
		var n int
		for _, j := range r.Jobs {
			if len(j.ID) >= len(prefix) && j.ID[:len(prefix)] == prefix {
				sum += float64(j.JCT())
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return unit.Duration(sum / float64(n))
	}
	return &MixedClusterResult{
		RegularJCTPartitioned:   avg(part, "reg"),
		RegularJCTNaive:         avg(naive, "reg"),
		IrregularJCTPartitioned: avg(part, "cur"),
		IrregularJCTNaive:       avg(naive, "cur"),
	}, nil
}

// Table renders the mixed-cluster comparison.
func (r *MixedClusterResult) Table() *report.Table {
	t := report.NewTable("Mixed cluster (§6): regular + curriculum jobs, avg JCT (minutes)",
		"Config", "Regular jobs", "Curriculum jobs")
	t.AddRowf("partitioned (SiloD, §6)", r.RegularJCTPartitioned.Minutes(), r.IrregularJCTPartitioned.Minutes())
	t.AddRowf("naive (all treated regular)", r.RegularJCTNaive.Minutes(), r.IrregularJCTNaive.Minutes())
	return t
}
