package cache

import (
	"container/list"
	"fmt"
	"math"

	"repro/internal/unit"
)

// LRUPool is the Alluxio baseline: a single cluster-wide pool with
// least-recently-used eviction and no quota awareness. Every miss is
// admitted; the least recently used block anywhere in the pool is
// evicted to make room. Under DL training's epoch-shuffled,
// exactly-once access pattern this policy thrashes (§2.2, §7.1), which
// is precisely the behaviour the baseline must exhibit.
type LRUPool struct {
	capacity unit.Bytes
	keys     map[string]*lruKeyState
	order    *list.List // front = most recent; values are *lruEntry
	total    unit.Bytes
	met      PoolMetrics
}

type lruKeyState struct {
	keyState
	entries map[BlockID]*list.Element
}

type lruEntry struct {
	key string
	blk BlockID
}

// NewLRUPool returns an empty LRU pool.
func NewLRUPool(capacity unit.Bytes) *LRUPool {
	return &LRUPool{
		capacity: capacity,
		keys:     make(map[string]*lruKeyState),
		order:    list.New(),
	}
}

// Register implements Pool.
func (p *LRUPool) Register(key string, numBlocks int, blockSize unit.Bytes) error {
	if numBlocks < 0 || blockSize <= 0 {
		return fmt.Errorf("cache: bad geometry for %q: %d blocks of %v", key, numBlocks, blockSize)
	}
	if st, ok := p.keys[key]; ok {
		if st.numBlocks != numBlocks || st.blockSize != blockSize {
			return fmt.Errorf("cache: %q re-registered with different geometry", key)
		}
		return nil
	}
	p.keys[key] = &lruKeyState{
		keyState: keyState{numBlocks: numBlocks, blockSize: blockSize, cached: NewBitset(numBlocks)},
		entries:  make(map[BlockID]*list.Element),
	}
	return nil
}

// Access implements Pool: hits refresh recency; misses admit and evict
// LRU victims as needed.
func (p *LRUPool) Access(key string, blk BlockID) (Outcome, error) {
	st, ok := p.keys[key]
	if !ok {
		return Outcome{}, fmt.Errorf("cache: access to unregistered key %q", key)
	}
	if int(blk) < 0 || int(blk) >= st.numBlocks {
		return Outcome{}, fmt.Errorf("cache: block %d out of range for %q (%d blocks)", blk, key, st.numBlocks)
	}
	if el, ok := st.entries[blk]; ok {
		p.order.MoveToFront(el)
		p.met.Hits.Inc()
		return Outcome{Hit: true}, nil
	}
	p.met.Misses.Inc()
	if st.blockSize > p.capacity {
		return Outcome{}, nil // block can never fit
	}
	for p.total+st.blockSize > p.capacity {
		if !p.evictLRU() {
			return Outcome{}, nil
		}
	}
	el := p.order.PushFront(&lruEntry{key: key, blk: blk})
	st.entries[blk] = el
	st.cached.Set(int(blk))
	p.total += st.blockSize
	p.met.Admissions.Inc()
	p.met.Resident.Set(float64(p.total))
	return Outcome{}, nil
}

// evictLRU removes the least recently used block; false if empty.
func (p *LRUPool) evictLRU() bool {
	el := p.order.Back()
	if el == nil {
		return false
	}
	e := el.Value.(*lruEntry)
	st := p.keys[e.key]
	p.order.Remove(el)
	delete(st.entries, e.blk)
	st.cached.Clear(int(e.blk))
	p.total -= st.blockSize
	p.met.Evictions.Inc()
	p.met.Resident.Set(float64(p.total))
	return true
}

// Contains implements Pool.
func (p *LRUPool) Contains(key string, blk BlockID) bool {
	st, ok := p.keys[key]
	if !ok {
		return false
	}
	_, cached := st.entries[blk]
	return cached
}

// CachedBlocks implements Pool.
func (p *LRUPool) CachedBlocks(key string) int {
	st, ok := p.keys[key]
	if !ok {
		return 0
	}
	return len(st.entries)
}

// CachedBytes implements Pool.
func (p *LRUPool) CachedBytes(key string) unit.Bytes {
	st, ok := p.keys[key]
	if !ok {
		return 0
	}
	return unit.Bytes(len(st.entries)) * st.blockSize
}

// TotalCachedBytes implements Pool.
func (p *LRUPool) TotalCachedBytes() unit.Bytes { return p.total }

// Capacity implements Pool.
func (p *LRUPool) Capacity() unit.Bytes { return p.capacity }

// Resize changes the pool capacity — a cache-node loss or return.
// Shrinking evicts from the LRU tail until the contents fit (the
// blocks the policy would have evicted next anyway); growing restores
// admission headroom but resurrects nothing.
func (p *LRUPool) Resize(capacity unit.Bytes) {
	if capacity < 0 {
		capacity = 0
	}
	p.capacity = capacity
	for p.total > p.capacity {
		if !p.evictLRU() {
			return
		}
	}
}

// EvictFraction invalidates the given fraction of the pool's cached
// blocks — the contents that lived on a failed cache node. Victims come
// from the cold (LRU) end: without per-block placement there is no
// seeded randomness in this pool, and evicting the coldest share is
// deterministic and errs in the baseline's favour. frac is clamped to
// [0, 1].
func (p *LRUPool) EvictFraction(frac float64) {
	if frac <= 0 {
		return
	}
	if frac > 1 {
		frac = 1
	}
	drop := int(math.Ceil(float64(p.order.Len()) * frac))
	for i := 0; i < drop; i++ {
		if !p.evictLRU() {
			return
		}
	}
}

// DropKey evicts everything under key and forgets it.
func (p *LRUPool) DropKey(key string) {
	st, ok := p.keys[key]
	if !ok {
		return
	}
	for blk, el := range st.entries {
		p.order.Remove(el)
		p.total -= st.blockSize
		st.cached.Clear(int(blk))
	}
	p.met.Evictions.Add(int64(len(st.entries)))
	p.met.Resident.Set(float64(p.total))
	delete(p.keys, key)
}

var _ Pool = (*LRUPool)(nil)
