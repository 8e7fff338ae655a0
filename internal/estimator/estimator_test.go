package estimator

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/unit"
)

func profile() JobProfile {
	return JobProfile{IdealThroughput: unit.MBpsOf(114), DatasetSize: unit.GiB(143)}
}

// TestEq3IOPerf pins Eq. 3 at known points.
func TestEq3IOPerf(t *testing.T) {
	p := profile()
	d := p.DatasetSize
	cases := []struct {
		cache unit.Bytes
		bw    unit.Bandwidth
		want  float64 // MB/s
	}{
		{0, unit.MBpsOf(50), 50},
		{d / 2, unit.MBpsOf(50), 100},
		{3 * d / 4, unit.MBpsOf(25), 100},
	}
	for i, c := range cases {
		got := p.IOPerf(Resources{Cache: c.cache, RemoteIO: c.bw}).MBpsValue()
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("case %d: IOPerf = %v, want %v", i, got, c.want)
		}
	}
	// Fully cached: infinite loading rate, so Perf = f*.
	if got := p.IOPerf(Resources{Cache: d, RemoteIO: 0}); !math.IsInf(float64(got), 1) {
		t.Errorf("fully cached IOPerf = %v, want +Inf", got)
	}
	if got := p.IOPerf(Resources{Cache: 0, RemoteIO: 0}); got != 0 {
		t.Errorf("no resources IOPerf = %v, want 0", got)
	}
}

// TestEq4Perf pins the min with f*.
func TestEq4Perf(t *testing.T) {
	p := profile()
	if got := p.Perf(Resources{Cache: p.DatasetSize, RemoteIO: 0}); got != p.IdealThroughput {
		t.Errorf("fully cached Perf = %v, want f*", got)
	}
	r := Resources{Cache: 0, RemoteIO: unit.MBpsOf(50)}
	if got := p.Perf(r); got.MBpsValue() != 50 {
		t.Errorf("IO-bound Perf = %v", got)
	}
	if !p.IOBound(r) {
		t.Error("should be IO bound")
	}
	if p.IOBound(Resources{Cache: p.DatasetSize, RemoteIO: 0}) {
		t.Error("fully cached job reported IO bound")
	}
}

// TestEq2RemoteDemand pins Eq. 2 through its inverse, Eq. 3: loading
// at f with cache c consumes b = f·(1 - c/d) of remote IO, so that b
// sustains exactly f.
func TestEq2RemoteDemand(t *testing.T) {
	p := profile()
	r := Resources{Cache: p.DatasetSize / 4, RemoteIO: unit.MBpsOf(75)}
	if got := p.IOPerf(r).MBpsValue(); math.Abs(got-100) > 1e-9 {
		t.Errorf("IOPerf at b = 75 MB/s, c = d/4 is %v, want 100", got)
	}
	// At f* the demand of an uncached job is f* itself.
	if got := p.Perf(Resources{RemoteIO: p.IdealThroughput}); got != p.IdealThroughput {
		t.Errorf("cold job granted f* runs at %v, want f*", got)
	}
}

// TestEq5CacheEfficiency pins Eq. 5 through Eq. 4: at f*, each byte of
// cache replaces f*/d of remote IO, so trading one GB of bandwidth-
// equivalent for cache keeps the job compute-bound. ResNet-50 on
// ImageNet-1k saves ~0.8 MB/s per GB.
func TestEq5CacheEfficiency(t *testing.T) {
	p := profile()
	eff := float64(p.IdealThroughput) / float64(p.DatasetSize)
	if got := p.IdealThroughput.MBpsValue() / (float64(p.DatasetSize) / float64(unit.GB)); math.Abs(got-114.0/143.0) > 1e-9 {
		t.Errorf("efficiency %v, want %v", got, 114.0/143.0)
	}
	for _, c := range []unit.Bytes{0, p.DatasetSize / 3, p.DatasetSize / 2} {
		for _, dc := range []unit.Bytes{unit.GB, unit.GiB(10)} {
			b := unit.Bandwidth(float64(p.IdealThroughput) * (1 - float64(c)/float64(p.DatasetSize)))
			b -= unit.Bandwidth(float64(dc) * eff)
			got := p.Perf(Resources{Cache: c + dc, RemoteIO: b})
			if math.Abs(float64(got-p.IdealThroughput))/float64(p.IdealThroughput) > 1e-9 {
				t.Errorf("c = %v + %v at %v: Perf %v, want f*", c, dc, b, got)
			}
		}
	}
}

// TestRequiredRemoteIOInversion: Perf(c, target·(1 - c/d)) == target
// for every achievable target, the remote IO a scheduler must grant.
func TestRequiredRemoteIOInversion(t *testing.T) {
	p := profile()
	f := func(rawT, rawC uint16) bool {
		target := unit.Bandwidth(float64(rawT%114+1)) * unit.MBps
		cache := unit.Bytes(float64(rawC%100) / 100 * float64(p.DatasetSize))
		b := unit.Bandwidth(float64(target) * (1 - float64(cache)/float64(p.DatasetSize)))
		got := p.Perf(Resources{Cache: cache, RemoteIO: b})
		return math.Abs(float64(got-target))/float64(target) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRequiredCacheInversion: with remote IO b < target, a cached
// fraction of 1 - b/target reaches the target, and nothing less does.
func TestRequiredCacheInversion(t *testing.T) {
	p := profile()
	f := func(rawT, rawB uint16) bool {
		target := unit.Bandwidth(float64(rawT%114+1)) * unit.MBps
		bw := unit.Bandwidth(float64(rawB%150+1)) * unit.MBps
		if bw >= target {
			return p.Perf(Resources{RemoteIO: bw}) >= target
		}
		c := unit.Bytes((1 - float64(bw)/float64(target)) * float64(p.DatasetSize))
		got := p.Perf(Resources{Cache: c, RemoteIO: bw})
		less := p.Perf(Resources{Cache: c - unit.GB, RemoteIO: bw})
		return float64(got) >= float64(target)*(1-1e-9) && less < target
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHitRatioClamps exercises the c/d clamp.
func TestHitRatioClamps(t *testing.T) {
	p := profile()
	over := p.Perf(Resources{Cache: 10 * p.DatasetSize, RemoteIO: 0})
	if over != p.IdealThroughput {
		t.Errorf("over-allocated cache Perf = %v", over)
	}
	neg := p.Perf(Resources{Cache: -1, RemoteIO: unit.MBpsOf(10)})
	if neg.MBpsValue() != 10 {
		t.Errorf("negative cache Perf = %v", neg)
	}
}
