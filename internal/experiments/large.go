package experiments

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/unit"
	"repro/internal/workload"
)

// Figure12Result holds the 400-GPU policy-by-system matrix.
type Figure12Result struct {
	// Results[scheduler][system].
	Results map[policy.SchedulerKind]SystemResults
	// Fairness timelines under Gavel (Figure 13).
	Fairness map[policy.CacheSystem]*stats.Series
	// AvgFairness under Gavel per system (the 2.56 / 1.51 / 1.39 / 1.35
	// comparison).
	AvgFairness map[policy.CacheSystem]float64
}

// Figure12 reproduces Figures 12 and 13: FIFO, SJF and Gavel on the
// four cache systems in the 400-GPU cluster with a 32 Gbps remote link.
func Figure12(o Options) (*Figure12Result, error) {
	jobs, err := traceFor(o, 400, 1000, 12*unit.Hour)
	if err != nil {
		return nil, err
	}
	cl := clusterPreset(400)
	out := &Figure12Result{
		Results:     make(map[policy.SchedulerKind]SystemResults),
		Fairness:    make(map[policy.CacheSystem]*stats.Series),
		AvgFairness: make(map[policy.CacheSystem]float64),
	}
	// One arm per (scheduler, system) cell: the full 12-cell matrix
	// fans out at once rather than scheduler-by-scheduler.
	kinds := policy.AllSchedulerKinds()
	systems := policy.AllCacheSystems()
	flat, err := mapArms(o, len(kinds)*len(systems), func(i int) (*sim.Result, error) {
		return runOne(o, kinds[i/len(systems)], systems[i%len(systems)], cl, jobs, nil)
	})
	if err != nil {
		return nil, err
	}
	for ki, k := range kinds {
		res := make(SystemResults, len(systems))
		for si, cs := range systems {
			res[cs] = flat[ki*len(systems)+si]
		}
		out.Results[k] = res
		if k == policy.GavelKind {
			for cs, r := range res {
				out.Fairness[cs] = r.Timelines["fairness"]
				// Average over the arrival window only: after arrivals
				// stop the cluster drains and the ratio trivially
				// approaches 1 for every system (the paper's 4-week
				// trace keeps the cluster contended throughout).
				out.AvgFairness[cs] = seriesMeanUpTo(r.Timelines["fairness"], (12 * unit.Hour).Minutes())
			}
		}
	}
	return out, nil
}

// JCTTable renders Figure 12a.
func (r *Figure12Result) JCTTable() *report.Table {
	t := report.NewTable("Figure 12a: 400-GPU average JCT (minutes; speedup of SiloD in parens)",
		"Scheduler", "SiloD", "Alluxio", "CoorDL", "Quiver")
	for _, k := range policy.AllSchedulerKinds() {
		res := r.Results[k]
		base := res[policy.SiloD].AvgJCT().Minutes()
		row := []string{k.String(), fmt.Sprintf("%.0f", base)}
		for _, cs := range []policy.CacheSystem{policy.Alluxio, policy.CoorDL, policy.Quiver} {
			v := res[cs].AvgJCT().Minutes()
			row = append(row, fmt.Sprintf("%.0f (%s)", v, report.Speedup(v, base)))
		}
		t.AddRow(row...)
	}
	return t
}

// MakespanTable renders Figure 12b.
func (r *Figure12Result) MakespanTable() *report.Table {
	t := report.NewTable("Figure 12b: 400-GPU makespan (minutes; speedup of SiloD in parens)",
		"Scheduler", "SiloD", "Alluxio", "CoorDL", "Quiver")
	for _, k := range policy.AllSchedulerKinds() {
		res := r.Results[k]
		base := res[policy.SiloD].Makespan.Minutes()
		row := []string{k.String(), fmt.Sprintf("%.0f", base)}
		for _, cs := range []policy.CacheSystem{policy.Alluxio, policy.CoorDL, policy.Quiver} {
			v := res[cs].Makespan.Minutes()
			row = append(row, fmt.Sprintf("%.0f (%s)", v, report.Speedup(v, base)))
		}
		t.AddRow(row...)
	}
	return t
}

// FairnessTable renders the Figure 13 summary.
func (r *Figure12Result) FairnessTable() *report.Table {
	t := report.NewTable("Figure 13: average fairness ratio under Gavel (higher is better)",
		"System", "Avg fairness ratio")
	for _, cs := range policy.AllCacheSystems() {
		t.AddRowf(cs.String(), r.AvgFairness[cs])
	}
	return t
}

// Figure14aResult is the remote-bandwidth sweep.
type Figure14aResult struct {
	BandwidthGBps []float64
	SiloDJCT      []float64 // minutes
	AlluxioJCT    []float64
}

// Figure14a reproduces Figure 14a: average JCT of FIFO-SiloD versus
// FIFO-Alluxio as the remote bandwidth grows; the gap should close once
// even LRU no longer bottlenecks on remote IO.
func Figure14a(o Options) (*Figure14aResult, error) {
	jobs, err := traceFor(o, 400, 600, 8*unit.Hour)
	if err != nil {
		return nil, err
	}
	res := &Figure14aResult{}
	points := []float64{2, 4, 6, 8, 10, 12}
	systems := []policy.CacheSystem{policy.SiloD, policy.Alluxio}
	// One arm per (bandwidth, system) point: 12 arms instead of 6
	// sequential pairs.
	flat, err := mapArms(o, len(points)*len(systems), func(i int) (*sim.Result, error) {
		cl := clusterPreset(400)
		cl.RemoteIO = unit.GBpsOf(points[i/len(systems)])
		return runOne(o, policy.FIFOKind, systems[i%len(systems)], cl, jobs, nil)
	})
	if err != nil {
		return nil, err
	}
	for pi, gbps := range points {
		res.BandwidthGBps = append(res.BandwidthGBps, gbps)
		res.SiloDJCT = append(res.SiloDJCT, flat[pi*len(systems)].AvgJCT().Minutes())
		res.AlluxioJCT = append(res.AlluxioJCT, flat[pi*len(systems)+1].AvgJCT().Minutes())
	}
	return res, nil
}

// Table renders Figure 14a.
func (r *Figure14aResult) Table() *report.Table {
	t := report.NewTable("Figure 14a: impact of remote bandwidth (FIFO, avg JCT minutes)",
		"Bandwidth (GB/s)", "SiloD", "Alluxio", "Alluxio/SiloD")
	for i, bw := range r.BandwidthGBps {
		t.AddRowf(fmt.Sprintf("%.0f", bw), r.SiloDJCT[i], r.AlluxioJCT[i],
			report.Speedup(r.AlluxioJCT[i], r.SiloDJCT[i]))
	}
	return t
}

// Figure14bResult is the GPU-speed sweep.
type Figure14bResult struct {
	SpeedScale []float64
	SiloDJCT   []float64
	QuiverJCT  []float64
	Gain       []float64 // Quiver JCT / SiloD JCT under Gavel
}

// Figure14b reproduces Figure 14b: JCT gain of Gavel-SiloD over
// Gavel-Quiver as GPUs get faster (1x, 2x, 4x V100 speed); faster GPUs
// push more jobs into IO bottleneck, widening SiloD's advantage.
func Figure14b(o Options) (*Figure14bResult, error) {
	res := &Figure14bResult{}
	scales := []float64{1, 2, 4}
	systems := []policy.CacheSystem{policy.SiloD, policy.Quiver}
	// One arm per (scale, system); each arm regenerates the scale's
	// trace, which is deterministic given the config and cheap next to
	// the simulation it feeds.
	flat, err := mapArms(o, len(scales)*len(systems), func(i int) (*sim.Result, error) {
		n := 600
		if o.Jobs > 0 {
			n = o.Jobs
		}
		if o.Quick {
			n = max(10, n/10)
		}
		cfg := workload.DefaultTraceConfig(o.seed(), n, 8*unit.Hour)
		cfg.SpeedScale = scales[i/len(systems)]
		jobs, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		return runOne(o, policy.GavelKind, systems[i%len(systems)], clusterPreset(400), jobs, nil)
	})
	if err != nil {
		return nil, err
	}
	for si, scale := range scales {
		s, q := flat[si*len(systems)], flat[si*len(systems)+1]
		res.SpeedScale = append(res.SpeedScale, scale)
		res.SiloDJCT = append(res.SiloDJCT, s.AvgJCT().Minutes())
		res.QuiverJCT = append(res.QuiverJCT, q.AvgJCT().Minutes())
		res.Gain = append(res.Gain, q.AvgJCT().Minutes()/s.AvgJCT().Minutes())
	}
	return res, nil
}

// Table renders Figure 14b.
func (r *Figure14bResult) Table() *report.Table {
	t := report.NewTable("Figure 14b: impact of GPU speed (Gavel, JCT gain of SiloD over Quiver)",
		"Speed scaling", "SiloD JCT (min)", "Quiver JCT (min)", "Gain")
	for i, s := range r.SpeedScale {
		t.AddRowf(fmt.Sprintf("%.0fx", s), r.SiloDJCT[i], r.QuiverJCT[i],
			fmt.Sprintf("%.2fx", r.Gain[i]))
	}
	return t
}

// Figure15Result is the dataset-sharing sweep.
type Figure15Result struct {
	SharePercent []float64
	// JCT[scheduler] aligned with SharePercent.
	JCT map[policy.SchedulerKind][]float64
}

// Figure15 reproduces Figure 15: the benefit of dataset sharing as the
// fraction of jobs drawing from a shared dataset pool grows, under all
// three SiloD-enhanced schedulers.
func Figure15(o Options) (*Figure15Result, error) {
	res := &Figure15Result{JCT: make(map[policy.SchedulerKind][]float64)}
	shares := []float64{0, 0.25, 0.5, 1.0}
	kinds := policy.AllSchedulerKinds()
	// One arm per (share fraction, scheduler): 12 arms, each
	// regenerating its share point's deterministic trace.
	flat, err := mapArms(o, len(shares)*len(kinds), func(i int) (*sim.Result, error) {
		n := 400
		if o.Jobs > 0 {
			n = o.Jobs
		}
		if o.Quick {
			n = max(10, n/10)
		}
		cfg := workload.DefaultTraceConfig(o.seed(), n, 8*unit.Hour)
		cfg.ShareFraction = shares[i/len(kinds)]
		jobs, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		return runOne(o, kinds[i%len(kinds)], policy.SiloD, clusterPreset(96), jobs, nil)
	})
	if err != nil {
		return nil, err
	}
	for si, share := range shares {
		res.SharePercent = append(res.SharePercent, share*100)
		for ki, k := range kinds {
			res.JCT[k] = append(res.JCT[k], flat[si*len(kinds)+ki].AvgJCT().Minutes())
		}
	}
	return res, nil
}

// Table renders Figure 15.
func (r *Figure15Result) Table() *report.Table {
	t := report.NewTable("Figure 15: impact of dataset sharing (SiloD, avg JCT minutes)",
		"% sharing", "FIFO", "SJF", "Gavel")
	for i, p := range r.SharePercent {
		t.AddRowf(fmt.Sprintf("%.0f", p),
			r.JCT[policy.FIFOKind][i], r.JCT[policy.SJFKind][i], r.JCT[policy.GavelKind][i])
	}
	return t
}

// AblationNoIOResult is the §7.2 remote-IO-control ablation.
type AblationNoIOResult struct {
	WithControl    *sim.Result
	WithoutControl *sim.Result
}

// AblationNoIO reproduces the §7.2 ablation: disabling SiloD's remote
// IO allocation (falling back to provider fair share) barely moves JCT
// and makespan but significantly degrades the instantaneous fairness
// ratio.
func AblationNoIO(o Options) (*AblationNoIOResult, error) {
	jobs, err := traceFor(o, 96, 300, 8*unit.Hour)
	if err != nil {
		return nil, err
	}
	cl := clusterPreset(96)
	mutates := []func(*sim.Config){nil, func(c *sim.Config) { c.DisableIOControl = true }}
	arms, err := mapArms(o, len(mutates), func(i int) (*sim.Result, error) {
		return runOne(o, policy.GavelKind, policy.SiloD, cl, jobs, mutates[i])
	})
	if err != nil {
		return nil, err
	}
	return &AblationNoIOResult{WithControl: arms[0], WithoutControl: arms[1]}, nil
}

// Table renders the ablation.
func (r *AblationNoIOResult) Table() *report.Table {
	t := report.NewTable("Ablation (§7.2): disabling SiloD's remote IO control (Gavel)",
		"Config", "Avg JCT (min)", "Makespan (min)", "Avg fairness ratio")
	t.AddRowf("cache+IO control", r.WithControl.AvgJCT().Minutes(),
		r.WithControl.Makespan.Minutes(), r.WithControl.AvgFairness())
	t.AddRowf("cache only (fair-share IO)", r.WithoutControl.AvgJCT().Minutes(),
		r.WithoutControl.Makespan.Minutes(), r.WithoutControl.AvgFairness())
	return t
}
