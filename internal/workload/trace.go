package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/simrng"
	"repro/internal/unit"
)

// TraceConfig parameterizes the synthetic trace generator. The defaults
// (see DefaultTraceConfig) follow the paper's setup: job durations drawn
// from a heavy-tailed distribution matching the shape of the Microsoft
// production trace [41], a mix of single- and multi-GPU jobs, and (by
// default) a distinct dataset per job to preserve dataset diversity.
type TraceConfig struct {
	Seed    int64
	NumJobs int
	// ArrivalWindow spreads submissions uniformly at Poisson arrivals
	// over this duration.
	ArrivalWindow unit.Duration
	// MedianDuration and DurationSigma shape the log-normal ideal job
	// duration; durations are clamped to [MinDuration, MaxDuration].
	MedianDuration unit.Duration
	DurationSigma  float64
	MinDuration    unit.Duration
	MaxDuration    unit.Duration
	// GPUCounts and GPUWeights give the multi-GPU mix.
	GPUCounts  []int
	GPUWeights []float64
	// ShareFraction in [0,1] is the fraction of jobs that draw their
	// dataset from a small shared pool instead of getting a private
	// synthetic copy (Figure 15).
	ShareFraction float64
	// SharedPoolSize is the number of distinct shared datasets
	// (Zipf-popular) when ShareFraction > 0.
	SharedPoolSize int
	// SpeedScale multiplies every job's GPU speed (Figure 14b).
	SpeedScale float64
}

// DefaultTraceConfig returns the configuration used by the cluster
// experiments, sized by job count.
func DefaultTraceConfig(seed int64, numJobs int, window unit.Duration) TraceConfig {
	return TraceConfig{
		Seed:           seed,
		NumJobs:        numJobs,
		ArrivalWindow:  window,
		MedianDuration: 40 * unit.Minute,
		DurationSigma:  2.0,
		MinDuration:    2 * unit.Minute,
		MaxDuration:    3 * unit.Day,
		GPUCounts:      []int{1, 2, 4, 8},
		GPUWeights:     []float64{0.70, 0.12, 0.10, 0.08},
		ShareFraction:  0,
		SharedPoolSize: 8,
		SpeedScale:     1,
	}
}

// modelWeights is the image-heavy job mix, per-model sampling weights
// keyed by model name: mostly vision models with an occasional VLAD or
// BERT job, mirroring the production mix the paper describes.
var modelWeights = map[string]float64{
	"ResNet-50":      0.28,
	"ResNet-152":     0.12,
	"EfficientNetB1": 0.14,
	"EfficientNetB0": 0.10,
	"AlexNet":        0.08,
	"InceptionV3":    0.12,
	"VLAD":           0.08,
	"BERT":           0.08,
}

// modelDatasetPool gives the candidate dataset sizes per model family.
// Image models train image-scale datasets; VLAD trains video corpora;
// BERT trains web-scale text (Table 4).
func modelDatasetPool(model string) []Dataset {
	switch model {
	case "VLAD":
		return []Dataset{{Name: "Youtube-8M", Size: unit.TiB(1.46)}}
	case "BERT":
		return []Dataset{{Name: "WebSearch", Size: unit.TiB(20.9)}}
	default:
		return []Dataset{
			{Name: "ImageNet-1k", Size: unit.GiB(143)},
			{Name: "OpenImages", Size: unit.GiB(660)},
			{Name: "ImageNet-22k", Size: unit.TiB(1.36)},
		}
	}
}

// Generate produces a reproducible trace from the config. Jobs are
// returned in submission order.
func Generate(cfg TraceConfig) ([]JobSpec, error) {
	if cfg.NumJobs <= 0 {
		return nil, fmt.Errorf("workload: trace with %d jobs", cfg.NumJobs)
	}
	if len(cfg.GPUCounts) == 0 || len(cfg.GPUCounts) != len(cfg.GPUWeights) {
		return nil, fmt.Errorf("workload: GPU mix misconfigured (%d counts, %d weights)",
			len(cfg.GPUCounts), len(cfg.GPUWeights))
	}
	if cfg.ShareFraction < 0 || cfg.ShareFraction > 1 {
		return nil, fmt.Errorf("workload: share fraction %v outside [0,1]", cfg.ShareFraction)
	}
	names := make([]string, 0, len(modelWeights))
	for name := range modelWeights {
		names = append(names, name)
	}
	sort.Strings(names)
	ws := make([]float64, len(names))
	for i, n := range names {
		ws[i] = modelWeights[n]
	}

	rng := simrng.New(cfg.Seed)
	arrivalRNG := rng.Split("arrival")
	durRNG := rng.Split("duration")
	mixRNG := rng.Split("mix")
	shareRNG := rng.Split("share")

	// Shared dataset pool: concrete catalog datasets, Zipf-popular.
	sharedPool := buildSharedPool(cfg.SharedPoolSize)
	zipf := simrng.NewZipf(shareRNG, len(sharedPool), 1.1)

	mu := math.Log(float64(cfg.MedianDuration))
	jobs := make([]JobSpec, 0, cfg.NumJobs)
	var clock unit.Time
	meanGap := float64(cfg.ArrivalWindow) / float64(cfg.NumJobs)
	for i := 0; i < cfg.NumJobs; i++ {
		if meanGap > 0 {
			clock = clock.Add(unit.Duration(arrivalRNG.Exponential(meanGap)))
		}
		mName := names[mixRNG.WeightedChoice(ws)]
		model := mustModel(mName)
		gpus := cfg.GPUCounts[mixRNG.WeightedChoice(cfg.GPUWeights)]

		var ds Dataset
		if shareRNG.Float64() < cfg.ShareFraction {
			ds = sharedPool[zipf.Next()]
		} else {
			// Private synthetic dataset: sized like a catalog dataset
			// appropriate for the model (with ±20% jitter — private
			// datasets are never byte-identical), but a unique
			// identity, keeping the cluster's dataset diversity (§7
			// "assuming all jobs use different datasets").
			pool := modelDatasetPool(mName)
			base := pool[mixRNG.Intn(len(pool))]
			size := unit.Bytes(float64(base.Size) * mixRNG.Uniform(0.8, 1.2))
			ds = Dataset{Name: fmt.Sprintf("%s-job%04d", base.Name, i), Size: size}
		}

		dur := unit.Duration(durRNG.BoundedLogNormal(mu, cfg.DurationSigma,
			float64(cfg.MinDuration), float64(cfg.MaxDuration)))
		spec := JobSpec{
			ID:         fmt.Sprintf("job-%04d", i),
			Model:      model,
			Dataset:    ds,
			NumGPUs:    gpus,
			Submit:     clock,
			SpeedScale: cfg.SpeedScale,
		}
		spec = spec.WithSteps(dur)
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		jobs = append(jobs, spec)
	}
	return jobs, nil
}

// buildSharedPool returns n shared datasets cycling over the catalog.
func buildSharedPool(n int) []Dataset {
	if n <= 0 {
		n = 1
	}
	cat := Datasets()
	pool := make([]Dataset, n)
	for i := 0; i < n; i++ {
		base := cat[i%len(cat)]
		pool[i] = Dataset{Name: fmt.Sprintf("shared-%s-%d", base.Name, i/len(cat)), Size: base.Size}
	}
	return pool
}

// TotalGPUDemand sums gpu·steps over the trace, a rough load measure.
func TotalGPUDemand(jobs []JobSpec) float64 {
	var s float64
	for _, j := range jobs {
		s += float64(j.NumGPUs) * float64(j.IdealDuration())
	}
	return s
}
