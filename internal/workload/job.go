package workload

import (
	"fmt"
	"math"

	"repro/internal/tenant"
	"repro/internal/unit"
)

// CurriculumSpec configures the curriculum-learning access pattern of
// §7.4: samples are sorted by difficulty and each batch samples
// uniformly from the prefix admitted by the exponential pacing function
// (Eq. 10).
type CurriculumSpec struct {
	StartingPercent float64 // fraction of the dataset visible at step 0
	Alpha           float64 // growth factor per pacing step
	StepSize        int64   // iterations between pacing expansions
}

// Validate reports whether the spec is usable.
func (c CurriculumSpec) Validate() error {
	if c.StartingPercent <= 0 || c.StartingPercent > 1 {
		return fmt.Errorf("workload: curriculum starting_percent %v outside (0,1]", c.StartingPercent)
	}
	if c.Alpha <= 1 {
		return fmt.Errorf("workload: curriculum alpha %v must exceed 1", c.Alpha)
	}
	if c.StepSize <= 0 {
		return fmt.Errorf("workload: curriculum step size %d must be positive", c.StepSize)
	}
	return nil
}

// VisibleFraction evaluates the pacing function g(i) of Eq. 10 as a
// fraction of the dataset: min(starting_percent * alpha^floor(i/Step), 1).
func (c CurriculumSpec) VisibleFraction(iteration int64) float64 {
	f := c.StartingPercent * math.Pow(c.Alpha, float64(iteration/c.StepSize))
	return math.Min(f, 1)
}

// JobSpec is everything the scheduler and simulator need to know about a
// training job. The dataset may be a private synthetic one (the traces
// assume mostly-distinct datasets, §7) or a shared catalog dataset.
type JobSpec struct {
	ID      string
	Model   Model
	Dataset Dataset
	NumGPUs int
	// Tenant is the owning tenant's ID; empty means the untenanted flat
	// pool. SLO is the tenant's service tier, copied onto the spec so
	// engines and policies need no registry lookup on the hot path.
	Tenant string
	SLO    tenant.SLOClass
	// NumSteps is the total number of mini-batches the job trains. With
	// data parallelism each step consumes Model.StepBytes per GPU.
	NumSteps int64
	Submit   unit.Time
	// SpeedScale multiplies the GPU compute speed (Figure 14b); 1 for a
	// V100-speed GPU.
	SpeedScale float64
	// Curriculum, when non-nil, marks the job as using the §7.4 access
	// pattern (an "irregular" job in §6 terms).
	Curriculum *CurriculumSpec
}

// speed returns the effective GPU speed multiplier.
func (j JobSpec) speed() float64 {
	if j.SpeedScale <= 0 {
		return 1
	}
	return j.SpeedScale
}

// IdealThroughput is f* for this job: the aggregate data-consumption
// rate when compute is the bottleneck, scaling linearly with GPUs and
// with the GPU speed factor.
func (j JobSpec) IdealThroughput() unit.Bandwidth {
	return j.Model.IdealIOPerGPU * unit.Bandwidth(float64(j.NumGPUs)*j.speed())
}

// StepBytesTotal is the data consumed by one step across all workers.
func (j JobSpec) StepBytesTotal() unit.Bytes {
	return j.Model.StepBytes() * unit.Bytes(j.NumGPUs)
}

// StepTime is the compute time of one step at this job's GPU speed.
func (j JobSpec) StepTime() unit.Duration {
	return unit.Duration(float64(j.Model.StepTime()) / j.speed())
}

// TotalBytes is the total data the job reads over its lifetime.
func (j JobSpec) TotalBytes() unit.Bytes {
	return j.StepBytesTotal() * unit.Bytes(j.NumSteps)
}

// IdealDuration is the job's runtime when IO is never the bottleneck.
func (j JobSpec) IdealDuration() unit.Duration {
	return unit.Duration(float64(j.NumSteps)) * j.StepTime()
}

// CacheEfficiency is f*/d (Eq. 5) in MB/s per GB for this job at its
// allocated GPU count.
func (j JobSpec) CacheEfficiency() float64 {
	d := float64(j.Dataset.Size) / float64(unit.GB)
	if d <= 0 {
		return math.Inf(1)
	}
	return j.IdealThroughput().MBpsValue() / d
}

// Validate reports whether the spec is internally consistent.
func (j JobSpec) Validate() error {
	if j.ID == "" {
		return fmt.Errorf("workload: job with empty ID")
	}
	if j.NumGPUs <= 0 {
		return fmt.Errorf("workload: job %s has %d GPUs", j.ID, j.NumGPUs)
	}
	if j.NumSteps <= 0 {
		return fmt.Errorf("workload: job %s has %d steps", j.ID, j.NumSteps)
	}
	// Written so NaN fails too; +Inf is no size or rate either.
	if !(j.Dataset.Size > 0) || math.IsInf(float64(j.Dataset.Size), 1) {
		return fmt.Errorf("workload: job %s has empty or non-finite dataset size %v", j.ID, j.Dataset.Size)
	}
	if !(j.Model.IdealIOPerGPU > 0) || math.IsInf(float64(j.Model.IdealIOPerGPU), 1) {
		return fmt.Errorf("workload: job %s model %q has no ideal IO", j.ID, j.Model.Name)
	}
	if j.Curriculum != nil {
		if err := j.Curriculum.Validate(); err != nil {
			return fmt.Errorf("job %s: %w", j.ID, err)
		}
	}
	return nil
}

// WithSteps returns a copy of the spec with NumSteps set so the job's
// ideal duration equals d.
func (j JobSpec) WithSteps(d unit.Duration) JobSpec {
	st := j.StepTime()
	if st <= 0 {
		j.NumSteps = 1
		return j
	}
	n := int64(math.Round(float64(d) / float64(st)))
	if n < 1 {
		n = 1
	}
	j.NumSteps = n
	return j
}
