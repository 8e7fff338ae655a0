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
	"fmt"
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

// Validate reports whether the profile is usable.
func (p JobProfile) Validate() error {
	if p.IdealThroughput <= 0 {
		return fmt.Errorf("estimator: non-positive ideal throughput %v", p.IdealThroughput)
	}
	if p.DatasetSize <= 0 {
		return fmt.Errorf("estimator: non-positive dataset size %v", p.DatasetSize)
	}
	return nil
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

// RemoteDemand is Eq. 2: the remote IO consumed when loading at
// throughput f with cache c.
func (p JobProfile) RemoteDemand(f unit.Bandwidth, c unit.Bytes) unit.Bandwidth {
	return unit.Bandwidth(float64(f) * (1 - p.hitRatio(c)))
}

// IdealRemoteDemand is the remote IO needed to run at f* with cache c:
// the bandwidth a scheduler must grant to keep the job compute-bound.
func (p JobProfile) IdealRemoteDemand(c unit.Bytes) unit.Bandwidth {
	return p.RemoteDemand(p.IdealThroughput, c)
}

// CacheEfficiency is Eq. 5: remote IO (bytes/s) saved per byte of cache
// when the job runs at its ideal throughput. Multiply by GB/(MB/s) unit
// factors externally if needed; this returns (bytes/s)/byte = 1/s.
func (p JobProfile) CacheEfficiency() float64 {
	return float64(p.IdealThroughput) / float64(p.DatasetSize)
}

// CacheEfficiencyMBpsPerGB reports Eq. 5 in the paper's display unit.
func (p JobProfile) CacheEfficiencyMBpsPerGB() float64 {
	return p.IdealThroughput.MBpsValue() / (float64(p.DatasetSize) / float64(unit.GB))
}

// RequiredRemoteIO inverts Eq. 4: the minimum remote IO allocation that
// achieves end-to-end throughput target given cache c. Targets above f*
// are unachievable and return an error; a fully cached dataset needs no
// remote IO.
func (p JobProfile) RequiredRemoteIO(target unit.Bandwidth, c unit.Bytes) (unit.Bandwidth, error) {
	const slack = 1e-9
	if float64(target) > float64(p.IdealThroughput)*(1+slack) {
		return 0, fmt.Errorf("estimator: target %v exceeds ideal throughput %v", target, p.IdealThroughput)
	}
	if target < 0 {
		return 0, fmt.Errorf("estimator: negative target %v", target)
	}
	miss := 1 - p.hitRatio(c)
	return unit.Bandwidth(float64(target) * miss), nil
}

// RequiredCache inverts Eq. 4 the other way: the minimum cache that
// achieves the target throughput given remote IO b. If b alone already
// sustains the target, zero cache suffices. If even a fully cached
// dataset cannot reach the target (target > f*), an error is returned.
func (p JobProfile) RequiredCache(target unit.Bandwidth, b unit.Bandwidth) (unit.Bytes, error) {
	const slack = 1e-9
	if float64(target) > float64(p.IdealThroughput)*(1+slack) {
		return 0, fmt.Errorf("estimator: target %v exceeds ideal throughput %v", target, p.IdealThroughput)
	}
	if target <= 0 {
		return 0, nil
	}
	if b >= target {
		return 0, nil
	}
	// Need miss ratio <= b/target, i.e. c/d >= 1 - b/target.
	frac := 1 - float64(b)/float64(target)
	return unit.Bytes(frac * float64(p.DatasetSize)), nil
}
