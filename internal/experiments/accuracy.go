package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/estimator"
	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/unit"
	"repro/internal/workload"
)

// fixedPolicy grants every job its gang plus a fixed cache quota and
// remote IO rate — the controlled-allocation harness for validating the
// closed-form estimator against block-level simulation.
type fixedPolicy struct {
	cache unit.Bytes
	io    unit.Bandwidth
}

func (p *fixedPolicy) Name() string { return "fixed" }

func (p *fixedPolicy) Assign(c core.Cluster, now unit.Time, jobs []core.JobView) core.Assignment {
	var a core.Assignment
	a.Reset(len(jobs))
	for i, j := range jobs {
		a.GPUs[i] = j.NumGPUs
		a.CacheQuota[j.DatasetKey] = p.cache
		a.RemoteIO[i] = p.io
	}
	return a
}

// AccuracyPoint is one validated (cache, bandwidth) configuration.
type AccuracyPoint struct {
	CacheFrac    float64
	RemoteIO     unit.Bandwidth
	PredictedJCT unit.Duration
	MeasuredJCT  unit.Duration
	Error        float64
}

// AccuracyResult is the §4 estimator-accuracy validation.
type AccuracyResult struct {
	Points   []AccuracyPoint
	MaxError float64
}

// EstimatorAccuracy validates the paper's claim that SiloDPerf (Eq. 4)
// predicts job performance within a few percent: a single ResNet-50 job
// runs in the block-level simulator under fixed cache/IO allocations,
// and its completion time is compared against the closed-form
// prediction (first epoch at the cold-cache rate, remaining epochs at
// SiloDPerf — the delayed-effectiveness model of §6).
func EstimatorAccuracy(o Options) (*AccuracyResult, error) {
	rn50, err := workload.ModelByName("ResNet-50")
	if err != nil {
		return nil, err
	}
	ds := workload.Dataset{Name: "imagenet1k", Size: unit.GiB(143)}
	epochs := 6.0
	if o.Quick {
		epochs = 3
	}
	spec := workload.JobSpec{ID: "probe", Model: rn50, Dataset: ds, NumGPUs: 1}
	spec.NumSteps = int64(epochs * float64(ds.Size) / float64(spec.StepBytesTotal()))

	res := &AccuracyResult{}
	for _, cacheFrac := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		for _, bw := range []unit.Bandwidth{unit.MBpsOf(30), unit.MBpsOf(60), unit.MBpsOf(120)} {
			blockAligned := unit.AlignUp(ds.Size, dataset.DefaultBlockSize)
			cache := unit.Bytes(cacheFrac * float64(blockAligned))
			prof := estimator.JobProfile{IdealThroughput: spec.IdealThroughput(), DatasetSize: blockAligned}
			// Closed-form prediction with the §6 warm-up model: the
			// first epoch misses everything (uniform cache still
			// filling), later epochs run at SiloDPerf.
			coldRate := prof.Perf(estimator.Resources{Cache: 0, RemoteIO: bw})
			warmRate := prof.Perf(estimator.Resources{Cache: cache, RemoteIO: bw})
			epochBytes := float64(blockAligned)
			totalBytes := epochs * float64(ds.Size)
			predicted := epochBytes/float64(coldRate) +
				(totalBytes-epochBytes)/float64(warmRate)

			pol := &fixedPolicy{cache: cache, io: bw}
			cl := core.Cluster{GPUs: 1, Cache: unit.TiB(1), RemoteIO: bw}
			r, err := sim.Run(sim.Config{
				Cluster: cl, Policy: pol, System: policy.SiloD, Engine: sim.Batch,
				Seed: o.seed(), DisableWorkConserving: true,
			}, []workload.JobSpec{spec})
			if err != nil {
				return nil, fmt.Errorf("accuracy cache=%.2f bw=%v: %w", cacheFrac, bw, err)
			}
			measured := r.AvgJCT().Seconds()
			pt := AccuracyPoint{
				CacheFrac:    cacheFrac,
				RemoteIO:     bw,
				PredictedJCT: unit.Duration(predicted),
				MeasuredJCT:  unit.Duration(measured),
				Error:        stats.RelativeError(measured, predicted),
			}
			res.Points = append(res.Points, pt)
			if pt.Error > res.MaxError {
				res.MaxError = pt.Error
			}
		}
	}
	return res, nil
}

// Table renders the accuracy validation.
func (r *AccuracyResult) Table() *report.Table {
	t := report.NewTable("Estimator accuracy (§4): SiloDPerf prediction vs block-level simulation",
		"Cache frac", "Remote IO", "Predicted (min)", "Measured (min)", "Error")
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprintf("%.2f", p.CacheFrac),
			p.RemoteIO.String(),
			fmt.Sprintf("%.1f", p.PredictedJCT.Minutes()),
			fmt.Sprintf("%.1f", p.MeasuredJCT.Minutes()),
			fmt.Sprintf("%.2f%%", 100*p.Error),
		)
	}
	t.AddRow("max error", "", "", "", fmt.Sprintf("%.2f%%", 100*r.MaxError))
	return t
}
