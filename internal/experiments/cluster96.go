package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/unit"
)

// Figure2Result is the cluster IO-demand timeline.
type Figure2Result struct {
	Demand *stats.Series // MB/s over minutes
	Peak   float64       // Gbps
}

// Figure2 reproduces Figure 2: the remote IO demand of a 400-V100
// cluster running the production-like trace with no cache at all —
// every byte is fetched remotely — against an effectively unlimited
// link, so the series is pure demand.
// silod:sim-root
func Figure2(o Options) (*Figure2Result, error) {
	jobs, err := traceFor(o, 400, 800, 12*unit.Hour)
	if err != nil {
		return nil, err
	}
	cl := core.Cluster{GPUs: 400, Cache: 0, RemoteIO: unit.GBpsOf(1000)}
	res, err := runOne(o, policy.FIFOKind, policy.Alluxio, cl, jobs, nil)
	if err != nil {
		return nil, err
	}
	demand := res.Timelines["remoteio"]
	return &Figure2Result{
		Demand: demand,
		Peak:   demand.MaxValue() * 8 / 1000, // MB/s -> Gbps
	}, nil
}

// Figure10Result is the 96-GPU cluster comparison.
type Figure10Result struct {
	Results SystemResults
	// CDF deciles of JCT (minutes) per system, Figure 10b.
	CDFFractions []float64
	CDF          map[policy.CacheSystem][]float64
	// Timelines for Figure 11 (throughput, ideal, remoteio per system).
	Timelines map[policy.CacheSystem]map[string]*stats.Series
	// EffectiveRatio is Figure 8: the time-averaged effective/allocated
	// cache ratio of the SiloD run.
	EffectiveRatio float64
	RemoteCapMBps  float64
}

// Figure10 reproduces Figures 10, 11 and 8: the FIFO-scheduled 96-GPU
// cluster under the four cache systems.
// silod:sim-root
func Figure10(o Options) (*Figure10Result, error) {
	jobs, err := traceFor(o, 96, 480, 24*unit.Hour)
	if err != nil {
		return nil, err
	}
	cl := clusterPreset(96)
	results, err := runSystems(o, policy.FIFOKind, cl, jobs, nil)
	if err != nil {
		return nil, err
	}
	out := &Figure10Result{
		Results:       results,
		CDFFractions:  []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99},
		CDF:           make(map[policy.CacheSystem][]float64),
		Timelines:     make(map[policy.CacheSystem]map[string]*stats.Series),
		RemoteCapMBps: cl.RemoteIO.MBpsValue(),
	}
	for cs, r := range results {
		out.CDF[cs] = stats.SampleCDF(r.JCTs(), out.CDFFractions)
		out.Timelines[cs] = r.Timelines
	}
	// Figure 8: effective vs allocated cache in the SiloD run.
	alloc := results[policy.SiloD].Timelines["cache_alloc"]
	eff := results[policy.SiloD].Timelines["cache_effective"]
	var ratio stats.TimeWeighted
	var lastT float64
	for i := 0; i < alloc.Len() && i < eff.Len(); i++ {
		ta, va := alloc.At(i)
		_, ve := eff.At(i)
		if va > 0 {
			ratio.Observe(ta, ve/va)
			lastT = ta
		}
	}
	out.EffectiveRatio = ratio.Finish(lastT)
	return out, nil
}

// Table renders Figure 10a (average JCT and makespan with speedups over
// each baseline, as the paper annotates).
func (r *Figure10Result) Table() *report.Table {
	t := report.NewTable("Figure 10a: 96-GPU cluster, FIFO",
		"System", "Avg JCT (min)", "vs SiloD", "Makespan (min)", "vs SiloD")
	base := r.Results[policy.SiloD]
	for _, cs := range policy.AllCacheSystems() {
		res := r.Results[cs]
		t.AddRow(cs.String(),
			fmt.Sprintf("%.0f", res.AvgJCT().Minutes()),
			report.Speedup(res.AvgJCT().Minutes(), base.AvgJCT().Minutes()),
			fmt.Sprintf("%.0f", res.Makespan.Minutes()),
			report.Speedup(res.Makespan.Minutes(), base.Makespan.Minutes()))
	}
	return t
}

// CDFTable renders Figure 10b.
func (r *Figure10Result) CDFTable() *report.Table {
	t := report.NewTable("Figure 10b: JCT distribution (minutes at CDF fraction)",
		"System", "p10", "p25", "p50", "p75", "p90", "p99")
	for _, cs := range policy.AllCacheSystems() {
		vals := r.CDF[cs]
		row := []string{cs.String()}
		for _, v := range vals {
			row = append(row, fmt.Sprintf("%.0f", v))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure11Text renders the Figure 11 timelines (remote IO usage, ideal
// and real throughput per system).
func (r *Figure10Result) Figure11Text(points int) string {
	out := fmt.Sprintf("== Figure 11: 96-GPU throughput/remote-IO timelines (capacity %.0f MB/s) ==\n", r.RemoteCapMBps)
	for _, cs := range policy.AllCacheSystems() {
		tl, ok := r.Timelines[cs]
		if !ok {
			continue
		}
		out += fmt.Sprintf("[FIFO-%s]  (t min: real MB/s / ideal MB/s / remote MB/s)\n", cs)
		th := tl["throughput"].Downsample(points)
		id := tl["ideal"].Downsample(points)
		rio := tl["remoteio"].Downsample(points)
		for i := 0; i < th.Len(); i++ {
			tm, v := th.At(i)
			_, vi := id.At(min(i, id.Len()-1))
			_, vr := rio.At(min(i, rio.Len()-1))
			out += fmt.Sprintf("  t=%8.0f  %9.1f / %9.1f / %9.1f\n", tm, v, vi, vr)
		}
	}
	return out
}

// Figure8Text summarizes the effective-cache finding.
func (r *Figure10Result) Figure8Text() string {
	return fmt.Sprintf("== Figure 8 ==\ntime-averaged effective/allocated cache ratio (SiloD run): %.1f%%\n",
		100*r.EffectiveRatio)
}

// FidelityRow is one system's fluid-vs-batch comparison at 96-GPU
// scale.
type FidelityRow struct {
	System   policy.CacheSystem
	FluidJCT unit.Duration
	BatchJCT unit.Duration
	FluidMS  unit.Duration
	BatchMS  unit.Duration
}

// JCTError is the fluid engine's relative JCT error.
func (r FidelityRow) JCTError() float64 {
	return stats.RelativeError(r.FluidJCT.Minutes(), r.BatchJCT.Minutes())
}

// MSError is the fluid engine's relative makespan error.
func (r FidelityRow) MSError() float64 {
	return stats.RelativeError(r.FluidMS.Minutes(), r.BatchMS.Minutes())
}

// FidelityResult is the cluster-scale fidelity test.
type FidelityResult struct {
	Rows []FidelityRow
}

// Figure10Fidelity reproduces the paper's 96-GPU simulator fidelity
// claim ("the errors of JCT and makespan are only up to 5.7% and
// 8.5%", §7.2): the fluid engine versus the block-level ground truth on
// the 96-GPU FIFO trace, over the deterministic cache systems. The
// batch engine simulates tens of millions of block events here, so the
// default trace is halved; pass Jobs to override.
// silod:sim-root
func Figure10Fidelity(o Options) (*FidelityResult, error) {
	jobs, err := traceFor(o, 96, 240, 12*unit.Hour)
	if err != nil {
		return nil, err
	}
	cl := clusterPreset(96)
	systems := []policy.CacheSystem{policy.SiloD, policy.CoorDL}
	engines := []sim.Engine{sim.Fluid, sim.Batch}
	// One arm per (system, engine); the batch arms dominate, so the
	// fluid arms ride along on spare workers.
	flat, err := mapArms(o, len(systems)*len(engines), func(i int) (*sim.Result, error) {
		cs, eng := systems[i/len(engines)], engines[i%len(engines)]
		pol, err := policy.Build(policy.FIFOKind, cs, o.seed())
		if err != nil {
			return nil, err
		}
		r, err := sim.Run(sim.Config{
			Cluster: cl, Policy: pol, System: cs, Engine: eng, Seed: o.seed(),
			FullResolve: o.FullResolve,
		}, jobs)
		if err != nil {
			return nil, fmt.Errorf("fidelity %v/%v: %w", cs, eng, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	res := &FidelityResult{}
	for si, cs := range systems {
		fl, ba := flat[si*len(engines)], flat[si*len(engines)+1]
		res.Rows = append(res.Rows, FidelityRow{
			System:   cs,
			FluidJCT: fl.AvgJCT(), FluidMS: fl.Makespan,
			BatchJCT: ba.AvgJCT(), BatchMS: ba.Makespan,
		})
	}
	return res, nil
}

// Table renders the fidelity comparison.
func (r *FidelityResult) Table() *report.Table {
	t := report.NewTable("96-GPU simulator fidelity (fluid vs block-level; paper: <=5.7% JCT, <=8.5% makespan)",
		"System", "Batch JCT", "Fluid JCT", "err", "Batch MS", "Fluid MS", "err")
	for _, row := range r.Rows {
		t.AddRow(row.System.String(),
			fmt.Sprintf("%.0f", row.BatchJCT.Minutes()),
			fmt.Sprintf("%.0f", row.FluidJCT.Minutes()),
			fmt.Sprintf("%.1f%%", 100*row.JCTError()),
			fmt.Sprintf("%.0f", row.BatchMS.Minutes()),
			fmt.Sprintf("%.0f", row.FluidMS.Minutes()),
			fmt.Sprintf("%.1f%%", 100*row.MSError()))
	}
	return t
}
