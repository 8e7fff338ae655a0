// Package estimator implements SiloD's enhanced performance estimator
// (§4): the closed-form analytical model relating a training job's
// end-to-end throughput to its cache allocation c, remote IO allocation
// b, dataset size d, and ideal (compute-bound) throughput f*.
//
// The central identities, numbered as in the paper:
//
//	SiloDPerf = min(f*, f)                        (Eq. 1)
//	b         = f · (1 - c/d)                     (Eq. 2, remote IO demand)
//	f         = b / (1 - c/d)                     (Eq. 3, IOPerf)
//	SiloDPerf = min(f*, b / (1 - c/d))            (Eq. 4)
//	CacheEff  = -∂b/∂c = f*/d                     (Eq. 5)
package estimator

import (
	"math"

	"repro/internal/unit"
)

// Resources is a cache + remote-IO allocation for one job. Compute is
// folded into IdealThroughput (f*) per Algorithm 1: existing schedulers
// already estimate the compute side, SiloD adds the storage side.
type Resources struct {
	Cache    unit.Bytes     // c: cache capacity allocated to the job's dataset
	RemoteIO unit.Bandwidth // b: remote IO bandwidth allocated to the job
}

// JobProfile is the per-job information the closed-form model needs.
type JobProfile struct {
	IdealThroughput unit.Bandwidth // f*: data consumption rate when compute-bound
	DatasetSize     unit.Bytes     // d
}

// hitRatio returns c/d clamped to [0,1]: with uniform caching the
// expected per-epoch hit ratio equals the cached fraction (§2.2).
//
// silod:pure
func (p JobProfile) hitRatio(c unit.Bytes) float64 {
	if p.DatasetSize <= 0 {
		return 0
	}
	h := float64(c) / float64(p.DatasetSize)
	return math.Min(math.Max(h, 0), 1)
}

// IOPerf is Eq. 3: the data-loading throughput sustainable with cache c
// and remote IO b. With the entire dataset cached the loader is never
// remote-IO limited, so the result is +Inf (the min in Eq. 1 then picks
// f*).
//
// silod:pure
func (p JobProfile) IOPerf(r Resources) unit.Bandwidth {
	miss := 1 - p.hitRatio(r.Cache)
	if miss <= 0 {
		return unit.Bandwidth(math.Inf(1))
	}
	if r.RemoteIO <= 0 {
		return 0
	}
	return unit.Bandwidth(float64(r.RemoteIO) / miss)
}

// Perf is Eq. 4: the end-to-end training throughput min(f*, IOPerf).
//
// silod:pure
func (p JobProfile) Perf(r Resources) unit.Bandwidth {
	io := p.IOPerf(r)
	if io > p.IdealThroughput {
		return p.IdealThroughput
	}
	return io
}

// IOBound reports whether data loading is the bottleneck under r.
func (p JobProfile) IOBound(r Resources) bool {
	return p.IOPerf(r) < p.IdealThroughput
}
