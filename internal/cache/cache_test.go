package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/simrng"
	"repro/internal/unit"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130) // spans three words
	if b.Count() != 0 || b.n != 130 {
		t.Fatal("fresh bitset")
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !b.Set(i) {
			t.Errorf("Set(%d) reported already set", i)
		}
		if !b.Test(i) {
			t.Errorf("Test(%d) false after set", i)
		}
	}
	if b.Count() != 4 {
		t.Errorf("count %d", b.Count())
	}
	if b.Set(63) {
		t.Error("double set reported new")
	}
	if !b.Clear(63) || b.Test(63) {
		t.Error("clear failed")
	}
	if b.Clear(63) {
		t.Error("double clear reported cleared")
	}
	// Out-of-range accesses are harmless.
	if b.Set(-1) || b.Set(130) || b.Test(999) || b.Clear(-5) {
		t.Error("out-of-range access misbehaved")
	}
	b.Reset()
	if b.Count() != 0 || b.Test(0) {
		t.Error("reset")
	}
}

// walkNthSet is the bit-by-bit walk random eviction used before
// nthSet: the index of the k-th set bit, or -1.
func walkNthSet(b *Bitset, k int) int {
	seen := 0
	for i := 0; i < b.n; i++ {
		if b.Test(i) {
			if seen == k {
				return i
			}
			seen++
		}
	}
	return -1
}

// TestNthSetMatchesWalk checks nthSet against the walk on random
// bitsets: sizes on and off the 64-bit word boundary, densities from
// empty to full, the word-edge bits forced on in half the cases, and
// every k from 0 to one past the last set bit.
func TestNthSetMatchesWalk(t *testing.T) {
	rng := simrng.New(8)
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 200, 1000} {
		for _, density := range []float64{0, 0.02, 0.5, 0.98, 1} {
			for _, edges := range []bool{false, true} {
				b := NewBitset(n)
				for i := 0; i < n; i++ {
					if rng.Float64() < density {
						b.Set(i)
					}
				}
				if edges {
					for _, i := range []int{0, 63, 64, 127, 128, n - 1} {
						b.Set(i)
					}
				}
				for k := 0; k <= b.Count(); k++ {
					if got, want := b.nthSet(k), walkNthSet(b, k); got != want {
						t.Fatalf("n=%d density=%v edges=%v: nthSet(%d) = %d, walk says %d", n, density, edges, k, got, want)
					}
				}
			}
		}
	}
}

func TestBitsetCountInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		b := NewBitset(256)
		ref := make(map[int]bool)
		for _, op := range ops {
			i := int(op % 256)
			if op%2 == 0 {
				b.Set(i)
				ref[i] = true
			} else {
				b.Clear(i)
				delete(ref, i)
			}
		}
		if b.Count() != len(ref) {
			return false
		}
		for i := 0; i < 256; i++ {
			if b.Test(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuotaPoolAdmission(t *testing.T) {
	p := NewQuotaPool(10*unit.MB, simrng.New(1))
	if err := p.Register("ds", 10, unit.MB); err != nil {
		t.Fatal(err)
	}
	if err := p.SetQuota("ds", 3*unit.MB); err != nil {
		t.Fatal(err)
	}
	// First three misses admit; the fourth doesn't (quota).
	for i := 0; i < 3; i++ {
		out, err := p.Access("ds", BlockID(i))
		if err != nil {
			t.Fatal(err)
		}
		if out.Hit || !p.Contains("ds", BlockID(i)) {
			t.Errorf("block %d: %+v, not admitted", i, out)
		}
	}
	out, _ := p.Access("ds", 3)
	if out.Hit || p.Contains("ds", 3) {
		t.Errorf("over-quota access admitted: %+v", out)
	}
	// Uniform caching never evicts: re-access of cached blocks hits.
	for i := 0; i < 3; i++ {
		out, _ := p.Access("ds", BlockID(i))
		if !out.Hit {
			t.Errorf("block %d evicted under uniform caching", i)
		}
	}
	if p.CachedBlocks("ds") != 3 || p.CachedBytes("ds") != 3*unit.MB {
		t.Error("accounting")
	}
}

func TestQuotaPoolShrinkEvictsRandomly(t *testing.T) {
	p := NewQuotaPool(100*unit.MB, simrng.New(2))
	if err := p.Register("ds", 100, unit.MB); err != nil {
		t.Fatal(err)
	}
	if err := p.SetQuota("ds", 100*unit.MB); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p.Access("ds", BlockID(i))
	}
	if err := p.SetQuota("ds", 40*unit.MB); err != nil {
		t.Fatal(err)
	}
	if got := p.CachedBlocks("ds"); got != 40 {
		t.Fatalf("after shrink: %d blocks cached, want 40", got)
	}
	if p.TotalCachedBytes() != 40*unit.MB {
		t.Error("pool total after shrink")
	}
	// Survivors should not be a contiguous prefix (random eviction).
	prefix := true
	for i := 0; i < 40; i++ {
		if !p.Contains("ds", BlockID(i)) {
			prefix = false
			break
		}
	}
	if prefix {
		t.Error("eviction kept exactly the first 40 blocks; expected random survivors")
	}
}

func TestQuotaPoolCapacityBound(t *testing.T) {
	p := NewQuotaPool(5*unit.MB, simrng.New(3))
	p.Register("a", 10, unit.MB)
	p.Register("b", 10, unit.MB)
	p.SetQuota("a", 4*unit.MB)
	p.SetQuota("b", 4*unit.MB) // quotas oversubscribe; capacity still binds
	for i := 0; i < 4; i++ {
		p.Access("a", BlockID(i))
	}
	admitted := 0
	for i := 0; i < 4; i++ {
		if out, _ := p.Access("b", BlockID(i)); !out.Hit && p.Contains("b", BlockID(i)) {
			admitted++
		}
	}
	if admitted != 1 {
		t.Errorf("capacity allowed %d admissions for b, want 1", admitted)
	}
	if p.TotalCachedBytes() > 5*unit.MB {
		t.Error("pool exceeded capacity")
	}
}

func TestQuotaPoolErrors(t *testing.T) {
	p := NewQuotaPool(unit.MB, simrng.New(4))
	if _, err := p.Access("nope", 0); err == nil {
		t.Error("unregistered access accepted")
	}
	if err := p.SetQuota("nope", 1); err == nil {
		t.Error("unregistered quota accepted")
	}
	if err := p.Register("ds", -1, unit.MB); err == nil {
		t.Error("negative geometry accepted")
	}
	if err := p.Register("ds", 4, unit.MB); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("ds", 4, unit.MB); err != nil {
		t.Error("idempotent re-register rejected")
	}
	if err := p.Register("ds", 5, unit.MB); err == nil {
		t.Error("geometry change accepted")
	}
	if _, err := p.Access("ds", 99); err == nil {
		t.Error("out-of-range block accepted")
	}
}

func TestQuotaPoolDropKey(t *testing.T) {
	p := NewQuotaPool(10*unit.MB, simrng.New(5))
	p.Register("ds", 10, unit.MB)
	p.SetQuota("ds", 10*unit.MB)
	for i := 0; i < 5; i++ {
		p.Access("ds", BlockID(i))
	}
	p.DropKey("ds")
	if p.TotalCachedBytes() != 0 {
		t.Error("DropKey left bytes behind")
	}
	if len(p.keys) != 0 {
		t.Error("DropKey left the key")
	}
}

func TestLRUPoolEviction(t *testing.T) {
	p := NewLRUPool(3 * unit.MB)
	p.Register("ds", 10, unit.MB)
	for i := 0; i < 3; i++ {
		p.Access("ds", BlockID(i))
	}
	// Touch block 0 so block 1 is LRU.
	if out, _ := p.Access("ds", 0); !out.Hit {
		t.Fatal("warm block missed")
	}
	p.Access("ds", 3) // evicts block 1
	if p.Contains("ds", 1) {
		t.Error("LRU victim not evicted")
	}
	if !p.Contains("ds", 0) || !p.Contains("ds", 2) || !p.Contains("ds", 3) {
		t.Error("wrong eviction victim")
	}
}

// TestLRUPoolThrashing demonstrates the §2.2 pathology: a cyclic scan
// over a dataset larger than the cache yields almost no hits.
func TestLRUPoolThrashing(t *testing.T) {
	p := NewLRUPool(50 * unit.MB)
	p.Register("ds", 100, unit.MB)
	hits := 0
	for epoch := 0; epoch < 3; epoch++ {
		for i := 0; i < 100; i++ { // sequential scan: worst case
			out, _ := p.Access("ds", BlockID(i))
			if out.Hit {
				hits++
			}
		}
	}
	if hits != 0 {
		t.Errorf("sequential scan of 2x-cache dataset got %d hits; LRU should thrash to 0", hits)
	}
}

func TestLRUPoolMultiKeyFastJobWins(t *testing.T) {
	// Two datasets, one accessed 4x as often: LRU should hold more of
	// the hot one (the paper's "fast jobs indirectly benefit").
	p := NewLRUPool(40 * unit.MB)
	p.Register("hot", 40, unit.MB)
	p.Register("cold", 40, unit.MB)
	rng := simrng.New(6)
	for i := 0; i < 4000; i++ {
		if rng.Float64() < 0.8 {
			p.Access("hot", BlockID(rng.Intn(40)))
		} else {
			p.Access("cold", BlockID(rng.Intn(40)))
		}
	}
	if p.CachedBlocks("hot") <= p.CachedBlocks("cold") {
		t.Errorf("hot %d <= cold %d cached blocks", p.CachedBlocks("hot"), p.CachedBlocks("cold"))
	}
	if p.TotalCachedBytes() > 40*unit.MB {
		t.Error("capacity exceeded")
	}
}

func TestLRUPoolDropKey(t *testing.T) {
	p := NewLRUPool(10 * unit.MB)
	p.Register("a", 10, unit.MB)
	p.Register("b", 10, unit.MB)
	for i := 0; i < 5; i++ {
		p.Access("a", BlockID(i))
		p.Access("b", BlockID(i))
	}
	p.DropKey("a")
	if p.CachedBlocks("a") != 0 {
		t.Error("a still cached")
	}
	if p.CachedBlocks("b") != 5 {
		t.Error("b affected by dropping a")
	}
	// Freed space is reusable.
	for i := 5; i < 10; i++ {
		if out, _ := p.Access("b", BlockID(i)); out.Hit || !p.Contains("b", BlockID(i)) {
			t.Error("freed space not reusable")
		}
	}
}

func TestPoolInvariantsProperty(t *testing.T) {
	// Property: under random accesses, neither pool ever exceeds its
	// capacity and CachedBytes is consistent with Contains.
	f := func(seed int64, ops []uint16) bool {
		qp := NewQuotaPool(16*unit.MB, simrng.New(seed))
		lp := NewLRUPool(16 * unit.MB)
		for _, p := range []Pool{qp, lp} {
			p.Register("a", 32, unit.MB)
			p.Register("b", 32, unit.MB)
		}
		qp.SetQuota("a", 8*unit.MB)
		qp.SetQuota("b", 12*unit.MB)
		for _, op := range ops {
			key := "a"
			if op%2 == 1 {
				key = "b"
			}
			blk := BlockID(op % 32)
			if _, err := qp.Access(key, blk); err != nil {
				return false
			}
			if _, err := lp.Access(key, blk); err != nil {
				return false
			}
		}
		for _, p := range []Pool{qp, lp} {
			if p.TotalCachedBytes() > p.Capacity() {
				return false
			}
			if p.CachedBytes("a")+p.CachedBytes("b") != p.TotalCachedBytes() {
				return false
			}
		}
		return qp.CachedBytes("a") <= 8*unit.MB && qp.CachedBytes("b") <= 12*unit.MB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCheLRUEverythingFits(t *testing.T) {
	hits := cheSolve(unit.GiB(10), cacheList{{unit.GiB(4), unit.MBpsOf(100)}, {unit.GiB(4), unit.MBpsOf(10)}}.streams())
	for i, h := range hits {
		if h != 1 {
			t.Errorf("stream %d hit %v, want 1 when everything fits", i, h)
		}
	}
}

// cheSolve is a cold CheLRUInto into a fresh buffer.
func cheSolve(capacity unit.Bytes, streams []FluidStream) []float64 {
	hits, _ := CheLRUInto(nil, capacity, streams, 0, new(CheWork))
	return hits
}

// cache1 keeps the test table compact.
type cache1 struct {
	size unit.Bytes
	rate unit.Bandwidth
}

type cacheList []cache1

func (c cacheList) streams() []FluidStream {
	out := make([]FluidStream, len(c))
	for i, s := range c {
		out[i] = FluidStream{Size: s.size, Rate: s.rate}
	}
	return out
}

func TestCheLRUSingleStreamMatchesExactAnalysis(t *testing.T) {
	// One stream with d = 2C: the exact shuffled-epoch analysis gives
	// hit = P(gap < (C/d)·T·...) = F(tau) with occupancy(tau) = C/d.
	hits := cheSolve(unit.GiB(1), cacheList{{unit.GiB(2), unit.MBpsOf(50)}}.streams())
	if hits[0] < 0.08 || hits[0] > 0.25 {
		t.Errorf("single-stream d=2C hit %v, want ~0.12-0.15", hits[0])
	}
}

func TestCheLRUFavorsFastStreams(t *testing.T) {
	hits := cheSolve(unit.GiB(2), cacheList{
		{unit.GiB(4), unit.MBpsOf(200)}, // fast: short re-access period
		{unit.GiB(4), unit.MBpsOf(10)},  // slow
	}.streams())
	if hits[0] <= hits[1] {
		t.Errorf("fast stream hit %v <= slow %v; LRU should favor fast jobs", hits[0], hits[1])
	}
}

func TestCheLRUEdgeCases(t *testing.T) {
	if hits := cheSolve(0, cacheList{{unit.GiB(1), unit.MBpsOf(1)}}.streams()); hits[0] != 0 {
		t.Error("zero capacity should hit 0")
	}
	if hits := cheSolve(unit.GiB(1), nil); len(hits) != 0 {
		t.Error("no streams")
	}
	hits := cheSolve(unit.GiB(1), cacheList{{unit.GiB(2), 0}}.streams())
	if hits[0] != 0 {
		t.Error("idle stream should hit 0")
	}
	// Hits are always within [0,1].
	hits = cheSolve(unit.GiB(3), cacheList{
		{unit.GiB(1), unit.MBpsOf(500)},
		{unit.GiB(8), unit.MBpsOf(3)},
		{unit.GiB(2), 0},
	}.streams())
	for i, h := range hits {
		if h < 0 || h > 1 {
			t.Errorf("hit[%d] = %v outside [0,1]", i, h)
		}
	}
}
