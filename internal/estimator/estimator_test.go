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

func TestValidate(t *testing.T) {
	if err := profile().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (JobProfile{IdealThroughput: 0, DatasetSize: 1}).Validate(); err == nil {
		t.Error("zero f* accepted")
	}
	if err := (JobProfile{IdealThroughput: 1, DatasetSize: 0}).Validate(); err == nil {
		t.Error("zero dataset accepted")
	}
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

// TestEq2RemoteDemand pins Eq. 2.
func TestEq2RemoteDemand(t *testing.T) {
	p := profile()
	if got := p.RemoteDemand(unit.MBpsOf(100), p.DatasetSize/4).MBpsValue(); math.Abs(got-75) > 1e-9 {
		t.Errorf("demand = %v, want 75", got)
	}
	if got := p.IdealRemoteDemand(0); got != p.IdealThroughput {
		t.Errorf("cold ideal demand = %v, want f*", got)
	}
	if got := p.IdealRemoteDemand(p.DatasetSize); got != 0 {
		t.Errorf("cached ideal demand = %v, want 0", got)
	}
}

// TestEq5CacheEfficiency pins the paper's headline value: ResNet-50 on
// ImageNet-1k saves ~0.8 MB/s per GB.
func TestEq5CacheEfficiency(t *testing.T) {
	got := profile().CacheEfficiencyMBpsPerGB()
	if math.Abs(got-114.0/143.0) > 1e-9 {
		t.Errorf("efficiency %v, want %v", got, 114.0/143.0)
	}
	// Eq. 5 is the negative derivative of Eq. 2 in c: check numerically.
	p := profile()
	h := float64(unit.GB)
	b0 := float64(p.RemoteDemand(p.IdealThroughput, 0))
	b1 := float64(p.RemoteDemand(p.IdealThroughput, unit.Bytes(h)))
	if math.Abs((b0-b1)/h-p.CacheEfficiency()) > 1e-12 {
		t.Error("Eq. 5 is not the derivative of Eq. 2")
	}
}

func TestRequiredRemoteIOInversion(t *testing.T) {
	p := profile()
	// Property: Perf(cache, RequiredRemoteIO(target, cache)) == target
	// for achievable targets.
	f := func(rawT, rawC uint16) bool {
		target := unit.Bandwidth(float64(rawT%114+1)) * unit.MBps
		cache := unit.Bytes(float64(rawC%100) / 100 * float64(p.DatasetSize))
		b, err := p.RequiredRemoteIO(target, cache)
		if err != nil {
			return false
		}
		got := p.Perf(Resources{Cache: cache, RemoteIO: b})
		return math.Abs(float64(got-target))/float64(target) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := p.RequiredRemoteIO(2*p.IdealThroughput, 0); err == nil {
		t.Error("over-f* target accepted")
	}
	if _, err := p.RequiredRemoteIO(-1, 0); err == nil {
		t.Error("negative target accepted")
	}
}

func TestRequiredCacheInversion(t *testing.T) {
	p := profile()
	f := func(rawT, rawB uint16) bool {
		target := unit.Bandwidth(float64(rawT%114+1)) * unit.MBps
		bw := unit.Bandwidth(float64(rawB%150+1)) * unit.MBps
		c, err := p.RequiredCache(target, bw)
		if err != nil {
			return false
		}
		got := p.Perf(Resources{Cache: c, RemoteIO: bw})
		return float64(got) >= float64(target)*(1-1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Bandwidth alone sufficient: zero cache needed.
	c, err := p.RequiredCache(unit.MBpsOf(40), unit.MBpsOf(50))
	if err != nil || c != 0 {
		t.Errorf("RequiredCache = %v, %v", c, err)
	}
	if _, err := p.RequiredCache(2*p.IdealThroughput, unit.MBpsOf(1)); err == nil {
		t.Error("unachievable target accepted")
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
