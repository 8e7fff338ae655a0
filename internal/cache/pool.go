package cache

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/simrng"
	"repro/internal/unit"
)

// BlockID indexes a block within a dataset.
type BlockID int32

// Outcome describes what happened on a block access.
type Outcome struct {
	Hit bool // the block was already cached
}

// Pool is a block cache shared by the cluster. Keys scope the
// accounting: the SiloD data manager keys by dataset (so jobs sharing a
// dataset share its cache, §6), while the CoorDL baseline keys by job
// (isolated per-VM caches).
type Pool interface {
	// Register declares a key with its block geometry. Registering an
	// existing key is a no-op if the geometry matches and an error
	// otherwise.
	Register(key string, numBlocks int, blockSize unit.Bytes) error
	// Access records a read of block blk under key and applies the
	// policy's admission/eviction decision.
	Access(key string, blk BlockID) (Outcome, error)
	// Contains reports whether the block is cached, without touching
	// recency state.
	Contains(key string, blk BlockID) bool
	// CachedBlocks reports the number of cached blocks under key.
	CachedBlocks(key string) int
	// CachedBytes reports the cached bytes under key.
	CachedBytes(key string) unit.Bytes
	// TotalCachedBytes reports the pool-wide cached bytes.
	TotalCachedBytes() unit.Bytes
	// Capacity reports the pool capacity in bytes.
	Capacity() unit.Bytes
	// Resize changes the pool capacity (a cache-node loss or return),
	// evicting per the pool's policy until the contents fit.
	Resize(capacity unit.Bytes)
	// EvictFraction invalidates the given fraction of cached blocks —
	// the contents that lived on a failed cache node.
	EvictFraction(frac float64)
}

// keyState is the per-key bookkeeping shared by pool implementations.
type keyState struct {
	numBlocks int
	blockSize unit.Bytes
	cached    *Bitset
}

// QuotaPool implements uniform caching with per-key quotas — the cache
// mechanism SiloD's data manager enforces (§6): a fetched block is
// admitted iff the key's cached bytes are below its quota; nothing is
// ever evicted except when a quota is reduced, in which case
// ShrinkQuota evicts uniformly at random (preserving the uniform access
// pattern). All methods are safe for concurrent use: the simulator
// drives the pool single-threaded, but the testbed's loader goroutines
// hit it concurrently through the data manager.
type QuotaPool struct {
	mu       sync.Mutex
	capacity unit.Bytes            // guarded by mu (shrinks/grows on cache-node faults)
	keys     map[string]*keyState  // guarded by mu
	quotas   map[string]unit.Bytes // guarded by mu
	total    unit.Bytes            // guarded by mu
	rng      *simrng.RNG           // guarded by mu
	met      PoolMetrics           // guarded by mu
}

// NewQuotaPool returns an empty pool with the given capacity. The RNG
// drives random eviction on quota shrink; pass a seeded source for
// reproducible runs.
func NewQuotaPool(capacity unit.Bytes, rng *simrng.RNG) *QuotaPool {
	if rng == nil {
		rng = simrng.New(1)
	}
	return &QuotaPool{
		capacity: capacity,
		keys:     make(map[string]*keyState),
		quotas:   make(map[string]unit.Bytes),
		rng:      rng,
	}
}

// Register implements Pool.
func (p *QuotaPool) Register(key string, numBlocks int, blockSize unit.Bytes) error {
	if numBlocks < 0 || blockSize <= 0 {
		return fmt.Errorf("cache: bad geometry for %q: %d blocks of %v", key, numBlocks, blockSize)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.keys[key]; ok {
		if st.numBlocks != numBlocks || st.blockSize != blockSize {
			return fmt.Errorf("cache: %q re-registered with different geometry", key)
		}
		return nil
	}
	p.keys[key] = &keyState{numBlocks: numBlocks, blockSize: blockSize, cached: NewBitset(numBlocks)}
	return nil
}

// SetQuota sets key's cache quota. Raising a quota takes effect on
// future admissions; lowering it evicts uniformly random cached blocks
// until the key fits. The quota is clamped to the pool capacity.
func (p *QuotaPool) SetQuota(key string, quota unit.Bytes) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.keys[key]
	if !ok {
		return fmt.Errorf("cache: quota for unregistered key %q", key)
	}
	if quota < 0 {
		quota = 0
	}
	if quota > p.capacity {
		quota = p.capacity
	}
	p.quotas[key] = quota
	// Enforce shrink immediately: evict random blocks above the quota.
	for unit.Bytes(st.cached.Count())*st.blockSize > quota {
		p.evictRandomLocked(st)
	}
	return nil
}

// Quota reports key's quota (0 if never set).
func (p *QuotaPool) Quota(key string) unit.Bytes {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.quotas[key]
}

// evictRandomLocked removes one uniformly random cached block of st;
// the caller holds p.mu.
func (p *QuotaPool) evictRandomLocked(st *keyState) {
	if st.cached.Count() == 0 {
		return
	}
	// Pick a uniformly random set bit: the target-th in index order.
	if !st.cached.Clear(st.cached.nthSet(p.rng.Intn(st.cached.Count()))) {
		return
	}
	p.total -= st.blockSize
	p.met.Evictions.Inc()
	p.met.Resident.Set(float64(p.total))
}

// Access implements Pool: hit if cached; on miss, admit while the key is
// under quota and the pool is under capacity.
func (p *QuotaPool) Access(key string, blk BlockID) (Outcome, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.keys[key]
	if !ok {
		return Outcome{}, fmt.Errorf("cache: access to unregistered key %q", key)
	}
	if int(blk) < 0 || int(blk) >= st.numBlocks {
		return Outcome{}, fmt.Errorf("cache: block %d out of range for %q (%d blocks)", blk, key, st.numBlocks)
	}
	if st.cached.Test(int(blk)) {
		p.met.Hits.Inc()
		return Outcome{Hit: true}, nil
	}
	p.met.Misses.Inc()
	quota := p.quotas[key]
	under := unit.Bytes(st.cached.Count()+1)*st.blockSize <= quota
	fits := p.total+st.blockSize <= p.capacity
	if under && fits {
		st.cached.Set(int(blk))
		p.total += st.blockSize
		p.met.Admissions.Inc()
		p.met.Resident.Set(float64(p.total))
	}
	return Outcome{}, nil
}

// Contains implements Pool.
func (p *QuotaPool) Contains(key string, blk BlockID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.keys[key]
	if !ok {
		return false
	}
	return st.cached.Test(int(blk))
}

// CachedBlocks implements Pool.
func (p *QuotaPool) CachedBlocks(key string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.keys[key]
	if !ok {
		return 0
	}
	return st.cached.Count()
}

// CachedBytes implements Pool.
func (p *QuotaPool) CachedBytes(key string) unit.Bytes {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.keys[key]
	if !ok {
		return 0
	}
	return unit.Bytes(st.cached.Count()) * st.blockSize
}

// TotalCachedBytes implements Pool.
func (p *QuotaPool) TotalCachedBytes() unit.Bytes {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}

// Capacity implements Pool.
func (p *QuotaPool) Capacity() unit.Bytes {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.capacity
}

// Resize changes the pool capacity — a cache-node loss or return.
// Shrinking evicts uniformly random blocks (largest keys first would
// bias the uniform access model) until the contents fit; quotas above
// the new capacity are clamped so future admissions stay feasible.
// Growing restores admission headroom but resurrects nothing.
func (p *QuotaPool) Resize(capacity unit.Bytes) {
	if capacity < 0 {
		capacity = 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.capacity = capacity
	for key, q := range p.quotas {
		if q > capacity {
			p.quotas[key] = capacity
		}
	}
	for p.total > capacity {
		st := p.largestKeyLocked()
		if st == nil || st.cached.Count() == 0 {
			return
		}
		p.evictRandomLocked(st)
	}
}

// EvictFraction invalidates the given fraction of every key's cached
// blocks, uniformly at random — the contents that lived on a failed
// cache node. frac is clamped to [0, 1]; keys are visited in sorted
// order and eviction uses the pool's seeded RNG, so the surviving set
// is deterministic for a given seed.
func (p *QuotaPool) EvictFraction(frac float64) {
	if frac <= 0 {
		return
	}
	if frac > 1 {
		frac = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.keys))
	for k := range p.keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		st := p.keys[k]
		drop := int(math.Ceil(float64(st.cached.Count()) * frac))
		for i := 0; i < drop && st.cached.Count() > 0; i++ {
			p.evictRandomLocked(st)
		}
	}
}

// largestKeyLocked returns the key with the most cached bytes (ties
// broken by name, for determinism); the caller holds p.mu.
func (p *QuotaPool) largestKeyLocked() *keyState {
	var best *keyState
	var bestBytes unit.Bytes
	names := make([]string, 0, len(p.keys))
	for k := range p.keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		st := p.keys[k]
		b := unit.Bytes(st.cached.Count()) * st.blockSize
		if b > bestBytes {
			best, bestBytes = st, b
		}
	}
	return best
}

// Keys returns the registered keys in sorted order.
func (p *QuotaPool) Keys() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.keys))
	for k := range p.keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DropKey evicts everything under key and forgets it — used when the
// last job using a private dataset finishes.
func (p *QuotaPool) DropKey(key string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.keys[key]
	if !ok {
		return
	}
	p.total -= unit.Bytes(st.cached.Count()) * st.blockSize
	p.met.Evictions.Add(int64(st.cached.Count()))
	p.met.Resident.Set(float64(p.total))
	delete(p.keys, key)
	delete(p.quotas, key)
}

var _ Pool = (*QuotaPool)(nil)
