package remoteio

import (
	"fmt"
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
	var d Divider
	grant := make([]float64, 3)
	d.WaterFill(grant, float64(unit.MBpsOf(90)), []float64{
		float64(unit.MBpsOf(10)), float64(unit.MBpsOf(40)), float64(unit.MBpsOf(100)),
	}, nil, []string{"small", "mid", "big"})
	// small fully served; mid and big split the remaining 80.
	for i, want := range []float64{10, 40, 40} {
		if g := unit.Bandwidth(grant[i]).MBpsValue(); g != want {
			t.Errorf("grant[%d] = %v MB/s, want %v", i, g, want)
		}
	}
	// Weighted: with 90 over three cold jobs of weights 2, 1 and 0.5,
	// the levels are 90·w/3.5, and the top-up adds on top of a grant.
	grant = []float64{0, 0, 5}
	d.WaterFill(grant, 90, []float64{100, 100, 100}, []float64{2, 1, 0.5}, []string{"c", "s", "h"})
	for i, want := range []float64{90 * 2 / 3.5, 90 / 3.5, 5 + 90*0.5/3.5} {
		if math.Abs(grant[i]-want) > 1e-9 {
			t.Errorf("weighted grant[%d] = %v, want %v", i, grant[i], want)
		}
	}
}

func TestFairShareProperties(t *testing.T) {
	var d Divider
	f := func(cap16 uint16, raw []uint16) bool {
		capacity := float64(cap16%1000+1) * float64(unit.MBps)
		wants := make([]float64, len(raw))
		ids := make([]string, len(raw))
		var total float64
		for i, r := range raw {
			wants[i] = float64(r%500) * float64(unit.MBps)
			ids[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
			total += wants[i]
		}
		grant := make([]float64, len(raw))
		d.WaterFill(grant, capacity, wants, nil, ids)
		var sum float64
		for i, g := range grant {
			if g < 0 || g > wants[i]+1e-6 {
				return false // never exceed demand
			}
			sum += g
		}
		// Work conservation: capacity or total demand exhausted.
		return sum <= capacity+1e-3 &&
			(math.Abs(sum-capacity) < 1 || math.Abs(sum-total) < 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestEqualShare(t *testing.T) {
	grant := make([]float64, 3)
	EqualSplit(grant, float64(unit.MBpsOf(90)), []float64{
		float64(unit.MBpsOf(5)), float64(unit.MBpsOf(100)), float64(unit.MBpsOf(100)),
	})
	// Each share = 30; tiny capped at demand; the unused 25 idles.
	if g := unit.Bandwidth(grant[0]).MBpsValue(); g != 5 {
		t.Errorf("tiny = %v", g)
	}
	if g1, g2 := unit.Bandwidth(grant[1]).MBpsValue(), unit.Bandwidth(grant[2]).MBpsValue(); g1 != 30 || g2 != 30 {
		t.Errorf("bigs = %v / %v", g1, g2)
	}
	var sum float64
	for _, v := range grant {
		sum += unit.Bandwidth(v).MBpsValue()
	}
	if sum != 65 {
		t.Errorf("total %v: EqualSplit must NOT redistribute the idle remainder", sum)
	}
}

func TestEdgeShares(t *testing.T) {
	var d Divider
	grant := []float64{0}
	if d.WaterFill(grant, 0, []float64{1}, nil, []string{"a"}); grant[0] != 0 {
		t.Error("zero capacity")
	}
	d.WaterFill(nil, float64(unit.MBpsOf(10)), nil, nil, nil) // no demands
	if d.WaterFill(grant, float64(unit.MBpsOf(10)), []float64{-5}, nil, []string{"a"}); grant[0] != 0 {
		t.Error("negative demand should get nothing")
	}
	if EqualSplit(grant, float64(unit.MBpsOf(10)), []float64{-5}); grant[0] != 0 {
		t.Error("negative demand should get nothing from the equal split")
	}
	// TopUp: the grants already use 60 of 90, so 30 is left; a holds
	// more than it wants and b's residual is below the 1e-9 cutoff, so
	// c takes it all.
	grant = []float64{50, 10, 0}
	d.TopUp(grant, 90, []float64{20, 10 + 1e-10, 100}, []string{"a", "b", "c"})
	if want := []float64{50, 10, 30}; !slices.Equal(grant, want) {
		t.Errorf("top-up = %v, want %v", grant, want)
	}
	grant = []float64{50, 50}
	if d.TopUp(grant, 90, []float64{100, 100}, []string{"a", "b"}); grant[0] != 50 || grant[1] != 50 {
		t.Errorf("oversubscribed grants topped up: %v", grant)
	}
}

// TestDividerAllocatesNothing pins the no-allocation contract: a warm
// Divider's water-fill, top-up and equal split allocate nothing.
func TestDividerAllocatesNothing(t *testing.T) {
	const n = 40
	wants, weights := make([]float64, n), make([]float64, n)
	grant, ids := make([]float64, n), make([]string, n)
	for i := range wants {
		wants[i] = float64((i*37)%n + 1)
		weights[i] = []float64{0.5, 1, 2}[i%3]
		ids[i] = fmt.Sprintf("job-%02d", i)
	}
	var d Divider
	d.TopUp(grant, 100, wants, ids) // warm the scratch
	if got := testing.AllocsPerRun(100, func() {
		clear(grant)
		d.WaterFill(grant, 300, wants, weights, ids)
		d.TopUp(grant, 500, wants, ids)
		EqualSplit(grant, 100, wants)
	}); got != 0 {
		t.Errorf("warm Divider: %v allocs/op, want 0", got)
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
