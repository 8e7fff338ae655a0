package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/unit"
	"repro/internal/workload"
)

// Figure16Result holds the curriculum-learning comparison.
type Figure16Result struct {
	StepSizes []int64
	// JCTs[cache][stepIndex] = per-repeat JCT minutes.
	UniformJCT map[int64][]float64
	LRUJCT     map[int64][]float64
	// PacingTable is Figure 16a: fraction of data visible by iteration.
	PacingTable *report.Table
}

// Figure16 reproduces Figure 16 (§7.4): ResNet-50 on ImageNet-22k with
// curriculum learning — samples sorted by difficulty, each batch drawn
// uniformly from the prefix admitted by the exponential pacing function
// — under Uniform caching and LRU. Because resampling makes newly
// cached items immediately reusable, LRU no longer thrashes and both
// policies should produce statistically indistinguishable JCTs.
//
// The iteration counts scale with block granularity: the job trains
// ~39k block-iterations (the paper's ~500k mini-batches), so the paper's
// 50k/75k pacing steps map to 5k/7.5k.
func Figure16(o Options) (*Figure16Result, error) {
	rn50, err := workload.ModelByName("ResNet-50")
	if err != nil {
		return nil, err
	}
	res := &Figure16Result{
		StepSizes:  []int64{5000, 7500},
		UniformJCT: make(map[int64][]float64),
		LRUJCT:     make(map[int64][]float64),
	}
	repeats := 5
	if o.Quick {
		repeats = 2
	}
	ds := workload.Dataset{Name: "imagenet22k", Size: unit.TiB(1.36)}
	cl := core.Cluster{GPUs: 1, Cache: unit.GiB(700), RemoteIO: unit.MBpsOf(60)}
	totalIters := int64(39000)
	if o.Quick {
		totalIters = 8000
	}
	for _, step := range res.StepSizes {
		cur := &workload.CurriculumSpec{StartingPercent: 0.04, Alpha: 2, StepSize: step}
		for rep := 0; rep < repeats; rep++ {
			spec := workload.JobSpec{
				ID: fmt.Sprintf("curriculum-%d-%d", step, rep), Model: rn50,
				Dataset: ds, NumGPUs: 1, Curriculum: cur,
			}
			// One block per step at the simulator's block granularity.
			spec.NumSteps = totalIters * int64(dataset.DefaultBlockSize/spec.StepBytesTotal())
			for _, cs := range []policy.CacheSystem{policy.SiloD, policy.Alluxio} {
				pol, err := policy.Build(policy.FIFOKind, cs, o.seed()+int64(rep))
				if err != nil {
					return nil, err
				}
				r, err := sim.Run(sim.Config{
					Cluster: cl, Policy: pol, System: cs, Engine: sim.Batch,
					Seed: o.seed() + int64(rep)*7919,
				}, []workload.JobSpec{spec})
				if err != nil {
					return nil, fmt.Errorf("figure16 %v step=%d rep=%d: %w", cs, step, rep, err)
				}
				jct := r.AvgJCT().Minutes()
				if cs == policy.SiloD {
					res.UniformJCT[step] = append(res.UniformJCT[step], jct)
				} else {
					res.LRUJCT[step] = append(res.LRUJCT[step], jct)
				}
			}
		}
	}
	// Figure 16a: the pacing functions themselves.
	pt := report.NewTable("Figure 16a: exponential pacing functions (fraction of data visible)",
		"Iteration", "Step=5k", "Step=7.5k")
	specA := workload.CurriculumSpec{StartingPercent: 0.04, Alpha: 2, StepSize: 5000}
	specB := workload.CurriculumSpec{StartingPercent: 0.04, Alpha: 2, StepSize: 7500}
	for _, it := range []int64{0, 5000, 10000, 15000, 20000, 25000, 30000, 35000, 39000} {
		pt.AddRowf(it,
			fmt.Sprintf("%.0f%%", 100*specA.VisibleFraction(it)),
			fmt.Sprintf("%.0f%%", 100*specB.VisibleFraction(it)))
	}
	res.PacingTable = pt
	return res, nil
}

// Table renders Figure 16b.
func (r *Figure16Result) Table() *report.Table {
	t := report.NewTable("Figure 16b: curriculum learning JCT, Uniform vs LRU (minutes, mean±sd)",
		"Step size", "Uniform cache", "LRU cache", "LRU/Uniform")
	for _, step := range r.StepSizes {
		u, l := r.UniformJCT[step], r.LRUJCT[step]
		t.AddRow(fmt.Sprintf("%d", step),
			fmt.Sprintf("%.1f±%.1f", stats.Mean(u), stats.Stddev(u)),
			fmt.Sprintf("%.1f±%.1f", stats.Mean(l), stats.Stddev(l)),
			fmt.Sprintf("%.3f", stats.Mean(l)/stats.Mean(u)))
	}
	return t
}
