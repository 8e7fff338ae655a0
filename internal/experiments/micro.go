package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/unit"
	"repro/internal/workload"
)

// MicroBenchJobs builds the §7.1.1 workload: four 1-GPU image
// classification jobs (two ResNet-50, two EfficientNetB1) on private
// 1.3 TB synthesized image datasets, plus one 4-GPU BERT job on the
// 20.9 TB web search corpus; epoch counts chosen so each runs ~3,500
// minutes at ideal speed (13 / 10 / 0.07 epochs).
func MicroBenchJobs() ([]workload.JobSpec, error) {
	rn50, err := workload.ModelByName("ResNet-50")
	if err != nil {
		return nil, err
	}
	eff, err := workload.ModelByName("EfficientNetB1")
	if err != nil {
		return nil, err
	}
	bert, err := workload.ModelByName("BERT")
	if err != nil {
		return nil, err
	}
	mk := func(id string, m workload.Model, ds workload.Dataset, gpus int, epochs float64) workload.JobSpec {
		spec := workload.JobSpec{ID: id, Model: m, Dataset: ds, NumGPUs: gpus}
		spec.NumSteps = int64(epochs * float64(ds.Size) / float64(spec.StepBytesTotal()))
		if spec.NumSteps < 1 {
			spec.NumSteps = 1
		}
		return spec
	}
	syn := func(i int) workload.Dataset {
		return workload.Dataset{Name: fmt.Sprintf("synth-images-%c", 'a'+i), Size: unit.TiB(1.3)}
	}
	return []workload.JobSpec{
		mk("rn50-a", rn50, syn(0), 1, 13),
		mk("rn50-b", rn50, syn(1), 1, 13),
		mk("effb1-a", eff, syn(2), 1, 10),
		mk("effb1-b", eff, syn(3), 1, 10),
		mk("bert", bert, workload.Dataset{Name: "websearch", Size: unit.TiB(20.9)}, 4, 0.07),
	}, nil
}

// MicroCluster is the 8-V100 micro-benchmark cluster: two 4-GPU VMs
// with 1 TB SSD cache each and a 1.6 Gbps (200 MB/s) egress limit.
func MicroCluster() core.Cluster {
	return core.Cluster{GPUs: 8, Cache: unit.TiB(2), RemoteIO: unit.MBpsOf(200)}
}

// Table6Row is one system's micro-benchmark outcome across the three
// fidelity levels. The batch engine plays the paper's "real V100"
// ground truth, the testbed plays the accelerated-K80 methodology, and
// the fluid engine plays the event simulator; relative errors are
// against the batch engine.
type Table6Row struct {
	System   policy.CacheSystem
	BatchJCT unit.Duration
	BatchMS  unit.Duration
	FluidJCT unit.Duration
	FluidMS  unit.Duration
	BedJCT   unit.Duration
	BedMS    unit.Duration
}

// Table6Result aggregates the micro-benchmark.
type Table6Result struct {
	Rows []Table6Row
	// Throughput timelines from the batch engine, Figure 9's series.
	Timelines map[policy.CacheSystem]*stats.Series
	RemoteCap float64 // MB/s, Figure 9's capacity line
}

// Table6Options control the fidelity comparison.
type Table6Options struct {
	Options
	// WithTestbed also runs the (wall-clock-bound) concurrent testbed.
	WithTestbed bool
}

// table6TimeScale is the testbed's time compression. Higher scales
// compress wall time further but push per-block sleeps toward the OS
// timer resolution, inflating compute-bound jobs' runtimes.
const table6TimeScale = 6000

// Table6 runs the micro-benchmark on all systems and engines.
func Table6(o Table6Options) (*Table6Result, error) {
	jobs, err := MicroBenchJobs()
	if err != nil {
		return nil, err
	}
	cl := MicroCluster()
	res := &Table6Result{
		Timelines: make(map[policy.CacheSystem]*stats.Series),
		RemoteCap: cl.RemoteIO.MBpsValue(),
	}
	// One arm per (system, engine) simulation; the testbed runs stay
	// sequential below because they are wall-clock bound (time-scaled
	// sleeps), so overlapping them would distort their measurements.
	systems := policy.AllCacheSystems()
	engines := []sim.Engine{sim.Batch, sim.Fluid}
	flat, err := mapArms(o.Options, len(systems)*len(engines), func(i int) (*sim.Result, error) {
		cs, eng := systems[i/len(engines)], engines[i%len(engines)]
		pol, err := policy.Build(policy.FIFOKind, cs, o.seed())
		if err != nil {
			return nil, err
		}
		r, err := sim.Run(sim.Config{
			Cluster: cl, Policy: pol, System: cs, Engine: eng, Seed: o.seed(),
			MetricsInterval: 20 * unit.Minute, FullResolve: o.FullResolve,
		}, jobs)
		if err != nil {
			return nil, fmt.Errorf("table6 %v/%v: %w", cs, eng, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for si, cs := range systems {
		ba, fl := flat[si*len(engines)], flat[si*len(engines)+1]
		row := Table6Row{
			System:   cs,
			BatchJCT: ba.AvgJCT(), BatchMS: ba.Makespan,
			FluidJCT: fl.AvgJCT(), FluidMS: fl.Makespan,
		}
		res.Timelines[cs] = ba.Timelines["throughput"]
		if o.WithTestbed {
			pol, err := policy.Build(policy.FIFOKind, cs, o.seed())
			if err != nil {
				return nil, err
			}
			tr, err := testbed.Run(testbed.Config{
				Cluster: cl, Policy: pol, System: cs,
				TimeScale: table6TimeScale, BlockSize: unit.GiB(4),
				Seed: o.seed(), MaxWall: 5 * time.Minute,
			}, jobs)
			if err != nil {
				return nil, fmt.Errorf("table6 %v/testbed: %w", cs, err)
			}
			row.BedJCT, row.BedMS = tr.AvgJCT(), tr.Makespan
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the Table 6 rows with relative errors against the batch
// engine.
func (r *Table6Result) Table() *report.Table {
	t := report.NewTable("Table 6: 8-V100 micro-benchmark (minutes; rel. error vs batch engine)",
		"System", "Batch JCT", "Fluid JCT", "err", "Testbed JCT", "err",
		"Batch MS", "Fluid MS", "err", "Testbed MS", "err")
	relOrDash := func(got, want unit.Duration) string {
		if got == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*stats.RelativeError(got.Minutes(), want.Minutes()))
	}
	minOrDash := func(d unit.Duration) string {
		if d == 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f", d.Minutes())
	}
	for _, row := range r.Rows {
		t.AddRow(
			row.System.String(),
			minOrDash(row.BatchJCT), minOrDash(row.FluidJCT), relOrDash(row.FluidJCT, row.BatchJCT),
			minOrDash(row.BedJCT), relOrDash(row.BedJCT, row.BatchJCT),
			minOrDash(row.BatchMS), minOrDash(row.FluidMS), relOrDash(row.FluidMS, row.BatchMS),
			minOrDash(row.BedMS), relOrDash(row.BedMS, row.BatchMS),
		)
	}
	return t
}

// Figure9 renders the Figure 9 throughput timelines from a Table6Result.
func (r *Table6Result) Figure9(points int) string {
	out := fmt.Sprintf("== Figure 9: total job throughput over time (remote IO capacity %.0f MB/s) ==\n", r.RemoteCap)
	for _, cs := range policy.AllCacheSystems() {
		s, ok := r.Timelines[cs]
		if !ok {
			continue
		}
		out += fmt.Sprintf("[%s]\n", cs)
		ds := s.Downsample(points)
		for i := 0; i < ds.Len(); i++ {
			tm, v := ds.At(i)
			out += fmt.Sprintf("  t=%7.0fmin  %8.1f MB/s\n", tm, v)
		}
	}
	return out
}

// Figure4Result captures the two-job motivating example.
type Figure4Result struct {
	// Steady-state per-job speeds (MB/s) and the overall average speed
	// across the run, per system.
	SiloDSpeeds  map[string]float64
	QuiverSpeeds map[string]float64
	SiloDAvg     float64
	QuiverAvg    float64
	SiloDMin     float64
	QuiverMin    float64
}

// Figure4 reproduces the Figure 4 example: two 1-V100 ResNet-50 jobs
// training 1.36 TB ImageNet-22k on a cluster with 1.4 TB cache and a
// 50 MB/s remote link. SiloD's max-min policy caches the dataset once
// for both jobs (dataset-level sharing, §6) so both converge to the
// ideal speed after the first epoch; Quiver's benefit-driven allocation
// accounts cache per job, so only one job's copy fits and the other is
// stuck at the remote link speed.
func Figure4(o Options) (*Figure4Result, error) {
	rn50, err := workload.ModelByName("ResNet-50")
	if err != nil {
		return nil, err
	}
	epochs := 13.0
	mkJob := func(id, ds string) workload.JobSpec {
		spec := workload.JobSpec{
			ID: id, Model: rn50, NumGPUs: 1,
			Dataset: workload.Dataset{Name: ds, Size: unit.TiB(1.36)},
		}
		spec.NumSteps = int64(epochs * float64(spec.Dataset.Size) / float64(spec.StepBytesTotal()))
		return spec
	}
	cl := core.Cluster{GPUs: 2, Cache: unit.TiB(1.4), RemoteIO: unit.MBpsOf(50)}
	run := func(cs policy.CacheSystem, k policy.SchedulerKind, shared bool) (*sim.Result, error) {
		a, b := "imagenet22k", "imagenet22k"
		if !shared {
			a, b = "imagenet22k-0", "imagenet22k-1"
		}
		jobs := []workload.JobSpec{mkJob("job-0", a), mkJob("job-1", b)}
		return runOne(o, k, cs, cl, jobs, func(c *sim.Config) {
			c.MetricsInterval = 30 * unit.Minute
		})
	}
	// SiloD: Gavel max-min with the shared dataset.
	sres, err := run(policy.SiloD, policy.GavelKind, true)
	if err != nil {
		return nil, err
	}
	// Quiver: job-granular benefit accounting — private dataset copies.
	qres, err := run(policy.Quiver, policy.GavelKind, false)
	if err != nil {
		return nil, err
	}
	speeds := func(r *sim.Result) map[string]float64 {
		out := make(map[string]float64)
		total := float64(mkJob("x", "y").TotalBytes()) / float64(unit.MB)
		for _, j := range r.Jobs {
			out[j.ID] = total / j.JCT().Seconds()
		}
		return out
	}
	res := &Figure4Result{SiloDSpeeds: speeds(sres), QuiverSpeeds: speeds(qres)}
	avgMin := func(m map[string]float64) (avg, mn float64) {
		ids := make([]string, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		mn = 1e18
		for _, id := range ids {
			v := m[id]
			avg += v
			if v < mn {
				mn = v
			}
		}
		return avg / float64(len(m)), mn
	}
	res.SiloDAvg, res.SiloDMin = avgMin(res.SiloDSpeeds)
	res.QuiverAvg, res.QuiverMin = avgMin(res.QuiverSpeeds)
	return res, nil
}

// Table renders the Figure 4 comparison.
func (r *Figure4Result) Table() *report.Table {
	t := report.NewTable("Figure 4: two ResNet-50 jobs, 1.4TB cache, 50MB/s remote (avg speed MB/s)",
		"System", "Job-0", "Job-1", "Min", "Avg")
	t.AddRowf("SiloD (max-min)", r.SiloDSpeeds["job-0"], r.SiloDSpeeds["job-1"], r.SiloDMin, r.SiloDAvg)
	t.AddRowf("Quiver", r.QuiverSpeeds["job-0"], r.QuiverSpeeds["job-1"], r.QuiverMin, r.QuiverAvg)
	return t
}
