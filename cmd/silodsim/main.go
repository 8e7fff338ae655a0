// Command silodsim reproduces the paper's tables and figures, or runs a
// custom trace through the cluster simulator.
//
// Reproduce an experiment (see -list for the index):
//
//	silodsim -exp fig12 [-seed 42] [-jobs 1000] [-quick]
//
// Run a trace file produced by silodtrace:
//
//	silodsim -trace trace.jsonl -scheduler Gavel -system SiloD \
//	         -gpus 96 -cache 24TB -remote 1GB/s
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/unit"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "silodsim:", err)
		os.Exit(1)
	}
}

// experimentRunner executes one experiment and prints its artifacts.
type experimentRunner struct {
	desc string
	run  func(o experiments.Options, w *os.File) error
}

// runners is the experiment index, keyed by the IDs in DESIGN.md.
var runners = map[string]experimentRunner{
	"static": {"Tables 1-2 and Figures 1, 3, 6 (catalog-derived)", func(o experiments.Options, w *os.File) error {
		fmt.Fprint(w, experiments.RenderStatic())
		return nil
	}},
	"fig2": {"Figure 2: 400-GPU remote IO demand timeline", func(o experiments.Options, w *os.File) error {
		r, err := experiments.Figure2(o)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== Figure 2: remote IO demand (peak %.0f Gbps) ==\n", r.Peak)
		report.RenderSeries(w, r.Demand, 24)
		return nil
	}},
	"fig4": {"Figure 4: two-job max-min motivating example", func(o experiments.Options, w *os.File) error {
		r, err := experiments.Figure4(o)
		if err != nil {
			return err
		}
		r.Table().Render(w)
		return nil
	}},
	"table6": {"Table 6 + Figure 9: 8-V100 micro-benchmark with fidelity comparison", func(o experiments.Options, w *os.File) error {
		r, err := experiments.Table6(experiments.Table6Options{Options: o, WithTestbed: true})
		if err != nil {
			return err
		}
		r.Table().Render(w)
		fmt.Fprint(w, r.Figure9(12))
		return nil
	}},
	"fig10": {"Figures 10, 11, 8: 96-GPU FIFO cluster", func(o experiments.Options, w *os.File) error {
		r, err := experiments.Figure10(o)
		if err != nil {
			return err
		}
		r.Table().Render(w)
		r.CDFTable().Render(w)
		fmt.Fprint(w, r.Figure11Text(10))
		fmt.Fprint(w, r.Figure8Text())
		return nil
	}},
	"fig12": {"Figures 12, 13: 400-GPU, three policies x four cache systems", func(o experiments.Options, w *os.File) error {
		r, err := experiments.Figure12(o)
		if err != nil {
			return err
		}
		r.JCTTable().Render(w)
		r.MakespanTable().Render(w)
		r.FairnessTable().Render(w)
		return nil
	}},
	"fig14a": {"Figure 14a: remote bandwidth sweep", func(o experiments.Options, w *os.File) error {
		r, err := experiments.Figure14a(o)
		if err != nil {
			return err
		}
		r.Table().Render(w)
		return nil
	}},
	"fig14b": {"Figure 14b: GPU speed scaling", func(o experiments.Options, w *os.File) error {
		r, err := experiments.Figure14b(o)
		if err != nil {
			return err
		}
		r.Table().Render(w)
		return nil
	}},
	"fig15": {"Figure 15: dataset sharing sweep", func(o experiments.Options, w *os.File) error {
		r, err := experiments.Figure15(o)
		if err != nil {
			return err
		}
		r.Table().Render(w)
		return nil
	}},
	"fig16": {"Figure 16: curriculum learning, Uniform vs LRU", func(o experiments.Options, w *os.File) error {
		r, err := experiments.Figure16(o)
		if err != nil {
			return err
		}
		r.PacingTable.Render(w)
		r.Table().Render(w)
		return nil
	}},
	"ablation-noio": {"Ablation (§7.2): disable remote IO control", func(o experiments.Options, w *os.File) error {
		r, err := experiments.AblationNoIO(o)
		if err != nil {
			return err
		}
		r.Table().Render(w)
		return nil
	}},
	"ablation-design": {"Design ablation: disable individual co-design mechanisms", func(o experiments.Options, w *os.File) error {
		r, err := experiments.AblationDesignChoices(o)
		if err != nil {
			return err
		}
		r.Table().Render(w)
		return nil
	}},
	"engine-cost": {"Engine cost: fluid vs block-level engine on the micro-benchmark", func(o experiments.Options, w *os.File) error {
		r, err := experiments.AblationEngineCost(o)
		if err != nil {
			return err
		}
		r.Table().Render(w)
		return nil
	}},
	"ablation-prefetch": {"Extension: Hoard-style dataset prefetching", func(o experiments.Options, w *os.File) error {
		r, err := experiments.AblationPrefetch(o)
		if err != nil {
			return err
		}
		r.Table().Render(w)
		return nil
	}},
	"mixed-cluster": {"Mixed cluster (§6): partitioning regular vs curriculum jobs", func(o experiments.Options, w *os.File) error {
		r, err := experiments.MixedCluster(o)
		if err != nil {
			return err
		}
		r.Table().Render(w)
		return nil
	}},
	"fidelity96": {"96-GPU simulator fidelity: fluid vs block-level engines (§7.2)", func(o experiments.Options, w *os.File) error {
		r, err := experiments.Figure10Fidelity(o)
		if err != nil {
			return err
		}
		r.Table().Render(w)
		return nil
	}},
	"gavel-objectives": {"Gavel objectives beyond max-min (throughput, finish-time fairness)", func(o experiments.Options, w *os.File) error {
		r, err := experiments.GavelObjectives(o)
		if err != nil {
			return err
		}
		r.Table().Render(w)
		return nil
	}},
	"estimator": {"Estimator accuracy (§4): closed form vs block-level simulation", func(o experiments.Options, w *os.File) error {
		r, err := experiments.EstimatorAccuracy(o)
		if err != nil {
			return err
		}
		r.Table().Render(w)
		return nil
	}},
	"tenants": {"Multi-tenant chaos: SLO-tiered tenants under GPU+cache loss", func(o experiments.Options, w *os.File) error {
		r, err := experiments.MultiTenantChaos(o)
		if err != nil {
			return err
		}
		r.Table().Render(w)
		for _, eng := range []string{"fluid", "batch"} {
			fmt.Fprintf(w, "%s makespan: clean %.0f min, chaos %.0f min\n",
				eng, r.CleanMakespan[eng].Minutes(), r.FaultMakespan[eng].Minutes())
		}
		return nil
	}},
}

func run(args []string, w *os.File) error {
	fs := flag.NewFlagSet("silodsim", flag.ContinueOnError)
	exp := fs.String("exp", "", "experiment ID to reproduce (see -list)")
	list := fs.Bool("list", false, "list experiment IDs")
	all := fs.Bool("all", false, "run every experiment")
	seed := fs.Int64("seed", 42, "random seed")
	jobsN := fs.Int("jobs", 0, "override trace size for cluster experiments")
	quick := fs.Bool("quick", false, "shrink cluster experiments for a fast pass")
	parallel := fs.Int("parallel", 0, "experiment-arm workers: 0 = GOMAXPROCS, 1 = sequential (debugging reference)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")

	trace := fs.String("trace", "", "run a JSONL trace file instead of an experiment")
	scheduler := fs.String("scheduler", "FIFO", "scheduling policy: FIFO | SJF | Gavel")
	system := fs.String("system", "SiloD", "cache system: SiloD | Alluxio | CoorDL | Quiver")
	gpus := fs.Int("gpus", 96, "cluster GPUs (trace mode)")
	cacheStr := fs.String("cache", "24TB", "cluster cache capacity (trace mode)")
	remoteStr := fs.String("remote", "1GB", "remote IO capacity in bytes/sec (trace mode), e.g. 1GB")
	engine := fs.String("engine", "fluid", "simulation engine: fluid | batch")
	fullResolve := fs.Bool("full-resolve", false, "disable the solve memo, the fluid rate memo and the Che early exit (reference mode; outputs are byte-identical either way)")
	csvDir := fs.String("csv", "", "write timeline series as CSV files into this directory (trace mode)")
	metricsOut := fs.String("metrics", "", "write a JSON metrics snapshot (counters, histograms, per-job events) to this file (trace mode)")
	faultsPath := fs.String("faults", "", "replay a deterministic fault schedule (JSON, see docs/fault-injection.md) during the run (trace mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		ids := make([]string, 0, len(runners))
		for id := range runners {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Fprintf(w, "%-14s %s\n", id, runners[id].desc)
		}
		return nil
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "silodsim: cpuprofile:", err)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "silodsim: memprofile:", err)
				return
			}
			runtime.GC() // settle live objects so the heap profile reflects retained memory
			if err := errors.Join(pprof.WriteHeapProfile(f), f.Close()); err != nil {
				fmt.Fprintln(os.Stderr, "silodsim: memprofile:", err)
			}
		}()
	}
	o := experiments.Options{
		Seed: *seed, Jobs: *jobsN, Quick: *quick,
		Workers: *parallel, FullResolve: *fullResolve,
	}
	if *trace != "" {
		return runTrace(w, *trace, *scheduler, *system, *engine, *gpus, *cacheStr, *remoteStr, *seed, *csvDir, *metricsOut, *faultsPath, *fullResolve)
	}
	if *faultsPath != "" {
		return fmt.Errorf("-faults requires -trace (fault schedules apply to trace runs)")
	}
	if *all {
		ids := make([]string, 0, len(runners))
		for id := range runners {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Fprintf(w, "\n######## %s ########\n", id)
			if err := runners[id].run(o, w); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
		return nil
	}
	r, ok := runners[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q (use -list)", *exp)
	}
	return r.run(o, w)
}

// runTrace simulates a trace file under one (scheduler, system) pair.
func runTrace(w *os.File, path, scheduler, system, engine string, gpus int, cacheStr, remoteStr string, seed int64, csvDir, metricsOut, faultsPath string, fullResolve bool) error {
	in, err := os.Open(path)
	if err != nil {
		return err
	}
	defer in.Close()
	jobs, err := workload.ReadTrace(in)
	if err != nil {
		return err
	}
	var sched *faults.Schedule
	if faultsPath != "" {
		data, err := os.ReadFile(faultsPath)
		if err != nil {
			return err
		}
		sched, err = faults.Parse(data)
		if err != nil {
			return fmt.Errorf("%s: %w", faultsPath, err)
		}
	}
	k, err := policy.ParseSchedulerKind(scheduler)
	if err != nil {
		return err
	}
	cs, err := policy.ParseCacheSystem(system)
	if err != nil {
		return err
	}
	cacheBytes, err := unit.ParseBytes(cacheStr)
	if err != nil {
		return err
	}
	remoteBW, err := unit.ParseBandwidth(remoteStr)
	if err != nil {
		return err
	}
	pol, err := policy.Build(k, cs, seed)
	if err != nil {
		return err
	}
	eng := sim.Fluid
	if engine == "batch" {
		eng = sim.Batch
	}
	var reg *metrics.Registry
	var tl *metrics.Timeline
	if metricsOut != "" {
		reg = metrics.NewRegistry("silodsim")
		tl = metrics.NewTimeline(0)
	}
	res, err := sim.Run(sim.Config{
		Cluster:     core.Cluster{GPUs: gpus, Cache: cacheBytes, RemoteIO: remoteBW},
		Policy:      pol,
		System:      cs,
		Engine:      eng,
		Seed:        seed,
		Faults:      sched,
		Metrics:     reg,
		Timeline:    tl,
		FullResolve: fullResolve,
	}, jobs)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("%s on %s (%d jobs, %s engine)", k, cs, len(jobs), eng),
		"Metric", "Value")
	t.AddRow("avg JCT", fmt.Sprintf("%.1f min", res.AvgJCT().Minutes()))
	t.AddRow("makespan", fmt.Sprintf("%.1f min", res.Makespan.Minutes()))
	t.AddRow("avg fairness", fmt.Sprintf("%.2f", res.AvgFairness()))
	t.AddRow("events", fmt.Sprintf("%d", res.Events))
	t.Render(w)
	if csvDir != "" {
		if err := writeTimelineCSVs(csvDir, res); err != nil {
			return err
		}
		fmt.Fprintf(w, "timeline CSVs written to %s\n", csvDir)
	}
	if metricsOut != "" {
		if err := writeMetricsDump(metricsOut, newMetricsDump(dumpSummary{
			Scheduler:   k.String(),
			System:      cs.String(),
			Engine:      eng.String(),
			Jobs:        len(res.Jobs),
			AvgJCTMin:   res.AvgJCT().Minutes(),
			MakespanMin: res.Makespan.Minutes(),
		}, reg, tl, os.Stderr)); err != nil {
			return err
		}
		fmt.Fprintf(w, "metrics snapshot written to %s\n", metricsOut)
	}
	return nil
}

// metricsDump is the -metrics JSON artifact: a run summary, the full
// registry snapshot, and the per-job event timeline.
type metricsDump struct {
	Summary  dumpSummary      `json:"summary"`
	Snapshot metrics.Snapshot `json:"snapshot"`
	Timeline []metrics.Event  `json:"timeline"`
}

// dumpSummary identifies the run the snapshot came from.
type dumpSummary struct {
	Scheduler   string  `json:"scheduler"`
	System      string  `json:"system"`
	Engine      string  `json:"engine"`
	Jobs        int     `json:"jobs"`
	AvgJCTMin   float64 `json:"avg_jct_minutes"`
	MakespanMin float64 `json:"makespan_minutes"`
	// TimelineDropped counts the events the timeline discarded at its
	// limit; the dump's timeline holds only those before it.
	TimelineDropped int64 `json:"timeline_dropped,omitempty"`
}

// newMetricsDump assembles the -metrics artifact of one run. When the
// timeline hit its limit, the summary counts the events it dropped and
// one line on warn says so.
func newMetricsDump(sum dumpSummary, reg *metrics.Registry, tl *metrics.Timeline, warn io.Writer) metricsDump {
	events := tl.Events()
	if sum.TimelineDropped = tl.Dropped(); sum.TimelineDropped > 0 {
		fmt.Fprintf(warn, "silodsim: timeline full: kept the first %d events, dropped %d\n",
			len(events), sum.TimelineDropped)
	}
	return metricsDump{Summary: sum, Snapshot: reg.Snapshot(), Timeline: events}
}

// writeMetricsDump writes the dump as indented JSON. Close errors on
// this write path are real data-loss signals, so the first of
// encode/close error wins.
func writeMetricsDump(path string, d metricsDump) (rerr error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && rerr == nil {
			rerr = cerr
		}
	}()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// writeTimelineCSVs dumps every timeline series of a run as CSV files,
// ready for external plotting.
func writeTimelineCSVs(dir string, res *sim.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(res.Timelines))
	for name := range res.Timelines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		werr := report.WriteSeriesCSV(f, res.Timelines[name])
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}
	return nil
}
