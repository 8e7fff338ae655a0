package remoteio

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/unit"
)

// ledgerTotal is l's allocated total, correctly rounded.
func ledgerTotal(l *Ledger) unit.Bandwidth {
	l.mu.Lock()
	defer l.mu.Unlock()
	return unit.Bandwidth(l.total.round())
}

// ledgerFree is l's unallocated capacity, never negative.
func ledgerFree(l *Ledger) unit.Bandwidth {
	l.mu.Lock()
	defer l.mu.Unlock()
	return max(l.capacity-unit.Bandwidth(l.total.round()), 0)
}

// ledgerJobs is the sorted IDs of the jobs l holds an allocation for.
func ledgerJobs(l *Ledger) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := make([]string, 0, len(l.alloc))
	for id := range l.alloc {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func TestLedger(t *testing.T) {
	l := NewLedger(unit.MBpsOf(100))
	if err := l.Set("a", unit.MBpsOf(60)); err != nil {
		t.Fatal(err)
	}
	if err := l.Set("b", unit.MBpsOf(40)); err != nil {
		t.Fatal(err)
	}
	if err := l.Set("c", unit.MBpsOf(1)); err == nil {
		t.Error("oversubscription accepted")
	}
	// Re-setting a job replaces, not adds.
	if err := l.Set("a", unit.MBpsOf(10)); err != nil {
		t.Fatal(err)
	}
	if got := ledgerTotal(l).MBpsValue(); math.Abs(got-50) > 1e-9 {
		t.Errorf("allocated = %v", got)
	}
	if got := ledgerFree(l).MBpsValue(); math.Abs(got-50) > 1e-9 {
		t.Errorf("free = %v", got)
	}
	if err := l.Set("a", -1); err == nil {
		t.Error("negative allocation accepted")
	}
	l.Remove("a")
	if l.Get("a") != 0 {
		t.Error("removed job still allocated")
	}
	jobs := ledgerJobs(l)
	if len(jobs) != 1 || jobs[0] != "b" {
		t.Errorf("jobs = %v", jobs)
	}
}

func TestFairShareWaterFilling(t *testing.T) {
	out := FairShare(unit.MBpsOf(90), []Demand{
		{"small", unit.MBpsOf(10)},
		{"mid", unit.MBpsOf(40)},
		{"big", unit.MBpsOf(100)},
	})
	// small fully served; mid and big split the remaining 80.
	if out["small"].MBpsValue() != 10 {
		t.Errorf("small = %v", out["small"])
	}
	if out["mid"].MBpsValue() != 40 {
		t.Errorf("mid = %v", out["mid"])
	}
	if out["big"].MBpsValue() != 40 {
		t.Errorf("big = %v", out["big"])
	}
}

func TestFairShareProperties(t *testing.T) {
	f := func(cap16 uint16, raw []uint16) bool {
		capacity := unit.Bandwidth(float64(cap16%1000+1)) * unit.MBps
		demands := make([]Demand, 0, len(raw))
		var total float64
		for i, r := range raw {
			w := unit.Bandwidth(float64(r % 500))
			demands = append(demands, Demand{JobID: string(rune('a'+i%26)) + string(rune('0'+i/26)), Want: w * unit.MBps})
			total += float64(w) * float64(unit.MBps)
		}
		out := FairShare(capacity, demands)
		var sum float64
		for _, d := range demands {
			g := float64(out[d.JobID])
			if g < 0 || g > float64(d.Want)+1e-6 {
				return false // never exceed demand
			}
			sum += g
		}
		// Work conservation: capacity or total demand exhausted.
		return sum <= float64(capacity)+1e-3 &&
			(math.Abs(sum-float64(capacity)) < 1 || math.Abs(sum-total) < 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestEqualShare(t *testing.T) {
	var d Divider
	out := d.EqualShareInto(nil, unit.MBpsOf(90), []Demand{
		{"tiny", unit.MBpsOf(5)},
		{"big1", unit.MBpsOf(100)},
		{"big2", unit.MBpsOf(100)},
	})
	// Each share = 30; tiny capped at demand; the unused 25 idles.
	if out[0].MBpsValue() != 5 {
		t.Errorf("tiny = %v", out[0])
	}
	if out[1].MBpsValue() != 30 || out[2].MBpsValue() != 30 {
		t.Errorf("bigs = %v / %v", out[1], out[2])
	}
	var sum float64
	for _, v := range out {
		sum += v.MBpsValue()
	}
	if sum != 65 {
		t.Errorf("total %v: EqualShare must NOT redistribute the idle remainder", sum)
	}
}

func TestEdgeShares(t *testing.T) {
	if out := FairShare(0, []Demand{{"a", 1}}); out["a"] != 0 {
		t.Error("zero capacity")
	}
	if out := FairShare(unit.MBpsOf(10), nil); len(out) != 0 {
		t.Error("no demands")
	}
	out := FairShare(unit.MBpsOf(10), []Demand{{"a", -5}})
	if out["a"] != 0 {
		t.Error("negative demand should clamp to 0")
	}
}

// fakeClock is a manually advanced clock for token bucket tests.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func TestTokenBucketRate(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := NewTokenBucket(unit.MBpsOf(10), 10*unit.MB, clk.Now)
	// Burst covers the first 10MB.
	if w := b.Reserve(10 * unit.MB); w != 0 {
		t.Errorf("burst reserve waited %v", w)
	}
	// The next 10MB must wait ~1s at 10MB/s.
	w := b.Reserve(10 * unit.MB)
	if w < 900*time.Millisecond || w > 1100*time.Millisecond {
		t.Errorf("reserve wait %v, want ~1s", w)
	}
	// After advancing the clock, tokens refill.
	clk.Advance(2 * time.Second)
	if w := b.Reserve(5 * unit.MB); w != 0 {
		t.Errorf("post-refill reserve waited %v", w)
	}
}

func TestTokenBucketSetRate(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := NewTokenBucket(unit.MBpsOf(10), unit.MB, clk.Now)
	b.Reserve(unit.MB) // drain burst
	b.SetRate(unit.MBpsOf(100))
	if got := unit.Bandwidth(b.rate); got != unit.MBpsOf(100) {
		t.Errorf("rate = %v", got)
	}
	w := b.Reserve(10 * unit.MB)
	if w > 200*time.Millisecond {
		t.Errorf("wait %v at 100MB/s for 10MB, want ~100ms", w)
	}
}

func TestTokenBucketZeroRateBlocks(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := NewTokenBucket(0, unit.MB, clk.Now)
	b.Reserve(unit.MB) // burst
	if w := b.Reserve(unit.MB); w < time.Hour {
		t.Errorf("zero-rate bucket waited only %v", w)
	}
}

// TestTokenBucketLongRunRate checks the reservation model achieves the
// configured long-run rate regardless of request sizes.
func TestTokenBucketLongRunRate(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := NewTokenBucket(unit.MBpsOf(50), unit.MB, clk.Now)
	var total unit.Bytes
	for i := 0; i < 100; i++ {
		n := unit.Bytes(i%7+1) * unit.MB
		w := b.Reserve(n)
		clk.Advance(w)
		total += n
	}
	elapsed := clk.now.Sub(time.Unix(0, 0)).Seconds()
	rate := float64(total) / elapsed / float64(unit.MB)
	if rate < 45 || rate > 56 {
		t.Errorf("long-run rate %.1f MB/s, want ~50", rate)
	}
}
