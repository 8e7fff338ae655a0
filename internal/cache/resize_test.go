package cache

import (
	"testing"

	"repro/internal/simrng"
	"repro/internal/unit"
)

// fillKey admits blocks 0..n-1 for key, failing the test if any
// admission is refused.
func fillKey(t *testing.T, p *QuotaPool, key string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		out, err := p.Access(key, BlockID(i))
		if err != nil {
			t.Fatal(err)
		}
		if out.Hit || !p.Contains(key, BlockID(i)) {
			t.Fatalf("block %d of %s not admitted", i, key)
		}
	}
}

// TestQuotaPoolResizeToZero: losing every cache node drains the pool
// completely, clamps quotas, and refuses admissions until a grow.
func TestQuotaPoolResizeToZero(t *testing.T) {
	const blk = unit.Bytes(64)
	p := NewQuotaPool(blk*8, simrng.New(1))
	if err := p.Register("ds", 8, blk); err != nil {
		t.Fatal(err)
	}
	if err := p.SetQuota("ds", blk*8); err != nil {
		t.Fatal(err)
	}
	fillKey(t, p, "ds", 8)

	p.Resize(0)
	if got := p.TotalCachedBytes(); got != 0 {
		t.Errorf("resize to zero left %v cached", got)
	}
	if got := p.Quota("ds"); got != 0 {
		t.Errorf("quota not clamped to zero capacity: %v", got)
	}
	out, err := p.Access("ds", 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Hit || p.Contains("ds", 0) {
		t.Errorf("zero-capacity pool served %+v", out)
	}
	// Negative capacity clamps to zero.
	p.Resize(unit.Bytes(-1))
	if got := p.Capacity(); got != 0 {
		t.Errorf("negative resize left capacity %v", got)
	}
	// Growing restores headroom but resurrects nothing; quota must be
	// re-raised since it was clamped.
	p.Resize(blk * 4)
	if got := p.TotalCachedBytes(); got != 0 {
		t.Errorf("grow resurrected %v", got)
	}
	if err := p.SetQuota("ds", blk*4); err != nil {
		t.Fatal(err)
	}
	fillKey(t, p, "ds", 4)
}

// TestQuotaPoolResizeBlockRounding: a capacity that is not a whole
// number of blocks must terminate eviction at the last whole block that
// fits — no livelock, no overshoot below the feasible occupancy.
func TestQuotaPoolResizeBlockRounding(t *testing.T) {
	const blk = unit.Bytes(64)
	p := NewQuotaPool(blk*8, simrng.New(2))
	if err := p.Register("ds", 8, blk); err != nil {
		t.Fatal(err)
	}
	if err := p.SetQuota("ds", blk*8); err != nil {
		t.Fatal(err)
	}
	fillKey(t, p, "ds", 8)

	// 2.5 blocks of capacity: only 2 whole blocks can stay.
	p.Resize(blk*2 + blk/2)
	if got := p.TotalCachedBytes(); got != blk*2 {
		t.Errorf("cached %v after fractional resize, want %v", got, blk*2)
	}
	if got := p.CachedBlocks("ds"); got != 2 {
		t.Errorf("%d blocks survive, want 2", got)
	}
	// The clamped quota is the raw capacity; a further admission would
	// put a third block over capacity and must be refused.
	out, err := p.Access("ds", 7)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Hit && p.Contains("ds", 7) {
		t.Error("admission over fractional capacity")
	}
}

// TestQuotaPoolResizeAtExactQuota: a key sitting at exactly its quota
// when the pool shrinks to exactly that occupancy loses nothing; one
// byte less evicts a whole block.
func TestQuotaPoolResizeAtExactQuota(t *testing.T) {
	const blk = unit.Bytes(64)
	p := NewQuotaPool(blk*8, simrng.New(3))
	if err := p.Register("ds", 8, blk); err != nil {
		t.Fatal(err)
	}
	if err := p.SetQuota("ds", blk*4); err != nil {
		t.Fatal(err)
	}
	fillKey(t, p, "ds", 4)

	p.Resize(blk * 4) // exactly the current occupancy
	if got := p.CachedBlocks("ds"); got != 4 {
		t.Errorf("resize to exact occupancy evicted: %d blocks left", got)
	}
	if got := p.Quota("ds"); got != blk*4 {
		t.Errorf("quota disturbed at exact fit: %v", got)
	}

	p.Resize(blk*4 - 1) // one byte under: one whole block must go
	if got := p.CachedBlocks("ds"); got != 3 {
		t.Errorf("one-byte shrink left %d blocks, want 3", got)
	}
	if got := p.Quota("ds"); got != blk*4-1 {
		t.Errorf("quota not clamped to new capacity: %v", got)
	}
}
