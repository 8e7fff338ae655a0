package remoteio

import (
	"math"
	"testing"

	"repro/internal/unit"
)

// TestLedgerResizeToZero: a total egress outage scales every allocation
// to zero, reports each change, and rejects new positive allocations
// until capacity returns.
func TestLedgerResizeToZero(t *testing.T) {
	l := NewLedger(unit.MBpsOf(100))
	for _, j := range []string{"a", "b", "c"} {
		if err := l.Set(j, unit.MBpsOf(30)); err != nil {
			t.Fatal(err)
		}
	}
	changed := l.Resize(0)
	if len(changed) != 3 {
		t.Fatalf("changed %d jobs, want 3: %v", len(changed), changed)
	}
	for j, bw := range changed {
		if bw != 0 {
			t.Errorf("job %s scaled to %v, want 0", j, bw)
		}
	}
	if got := ledgerTotal(l); got != 0 {
		t.Errorf("Allocated = %v after resize to zero", got)
	}
	if err := l.Set("a", unit.MBpsOf(10)); err == nil {
		t.Error("positive allocation accepted against zero capacity")
	}
	// Negative capacities clamp to zero rather than going nonsensical.
	l.Resize(unit.Bandwidth(-5))
	if got := l.capacity; got != 0 {
		t.Errorf("negative resize left capacity %v", got)
	}
	// Restoration re-opens the ledger.
	l.Resize(unit.MBpsOf(50))
	if err := l.Set("a", unit.MBpsOf(50)); err != nil {
		t.Errorf("allocation rejected after capacity restore: %v", err)
	}
}

// TestLedgerResizeRoundingStrandsNothing: proportional scale-down with
// a non-terminating ratio (100 -> 100/3) must neither oversubscribe the
// new capacity nor strand bandwidth beyond float round-off.
func TestLedgerResizeRoundingStrandsNothing(t *testing.T) {
	l := NewLedger(unit.MBpsOf(100))
	shares := []unit.Bandwidth{unit.MBpsOf(7), unit.MBpsOf(31), unit.MBpsOf(62)}
	for i, bw := range shares {
		if err := l.Set(string(rune('a'+i)), bw); err != nil {
			t.Fatal(err)
		}
	}
	target := unit.Bandwidth(float64(unit.MBpsOf(100)) / 3)
	changed := l.Resize(target)
	if len(changed) != 3 {
		t.Fatalf("changed %d jobs, want 3", len(changed))
	}
	total := float64(ledgerTotal(l))
	if total > float64(target)*(1+1e-9) {
		t.Errorf("scale-down oversubscribes: %v > %v", ledgerTotal(l), target)
	}
	if total < float64(target)*(1-1e-9) {
		t.Errorf("scale-down strands bandwidth: %v of %v allocated", ledgerTotal(l), target)
	}
	// Relative shares are preserved: 7:31:62.
	a, b := float64(l.Get("a")), float64(l.Get("b"))
	if r := b / a; math.Abs(r-31.0/7.0) > 1e-9 {
		t.Errorf("relative share drifted: b/a = %v, want %v", r, 31.0/7.0)
	}
}

// TestLedgerResizeAtExactCapacity: a ledger allocated to exactly its
// capacity resized to exactly that total is a no-op — nothing is
// rescaled and no change set is reported.
func TestLedgerResizeAtExactCapacity(t *testing.T) {
	l := NewLedger(unit.MBpsOf(100))
	if err := l.Set("a", unit.MBpsOf(40)); err != nil {
		t.Fatal(err)
	}
	if err := l.Set("b", unit.MBpsOf(60)); err != nil {
		t.Fatal(err)
	}
	if changed := l.Resize(unit.MBpsOf(100)); changed != nil {
		t.Errorf("resize to exact total rescaled: %v", changed)
	}
	if got := l.Get("a"); got != unit.MBpsOf(40) {
		t.Errorf("allocation disturbed: %v", got)
	}
	// Growing is also change-free: existing grants keep their rates.
	if changed := l.Resize(unit.MBpsOf(200)); changed != nil {
		t.Errorf("grow rescaled: %v", changed)
	}
	if got := ledgerTotal(l); got != unit.MBpsOf(100) {
		t.Errorf("Allocated = %v after grow, want 100 MB/s", got)
	}
}
