// Package datamgr implements the SiloD Data Manager (§6): the storage-
// layer component that enforces the scheduler's allocations. It exposes
// the Table 3 allocation APIs (allocateCacheSize to datasets,
// allocateRemoteIO to jobs), maintains the shared block cache with
// uniform caching semantics, throttles remote fetches with per-job
// token buckets, and tracks per-job access bitsets for the fine-grained
// effective-cache accounting the paper describes.
//
// The manager is safe for concurrent use: in the testbed every training
// job drives it from its own goroutine, playing the role of the paper's
// per-server FUSE clients.
package datamgr

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/remoteio"
	"repro/internal/simrng"
	"repro/internal/unit"
)

// jobState is the manager's per-job bookkeeping. The mutable counters
// belong to the Manager's lock: jobState values never escape it.
type jobState struct {
	id       string
	dataset  string
	bucket   *remoteio.TokenBucket
	accessed *cache.Bitset // blocks read in the current epoch (§6 bitset)
	// effectiveBlocks is the number of cached blocks at epoch start:
	// the cache that actually reduces this epoch's remote IO.
	effectiveBlocks int        // guarded by Manager.mu
	epoch           int        // guarded by Manager.mu
	remoteBytes     unit.Bytes // guarded by Manager.mu (lifetime remote traffic)
	hitBlocks       int64      // guarded by Manager.mu
	missBlocks      int64      // guarded by Manager.mu
}

// datasetInfo is the per-dataset geometry.
type datasetInfo struct {
	name      string
	size      unit.Bytes
	blockSize unit.Bytes
	numBlocks int
}

// Manager is the SiloD data manager.
type Manager struct {
	mu       sync.Mutex
	pool     *cache.QuotaPool       // immutable handle; pool state has its own lock
	ledger   *remoteio.Ledger       // immutable handle; ledger state has its own lock
	jobs     map[string]*jobState   // guarded by mu
	datasets map[string]datasetInfo // guarded by mu
	clock    func() time.Time

	registry  *metrics.Registry      // guarded by mu
	bucketMet remoteio.BucketMetrics // guarded by mu (shared by every job's token bucket)
}

// New returns a manager over a cache of the given capacity and a remote
// link of the given egress capacity. A nil clock uses time.Now; tests
// and the testbed inject scaled clocks.
func New(cacheCapacity unit.Bytes, egress unit.Bandwidth, seed int64, clock func() time.Time) *Manager {
	if clock == nil {
		clock = time.Now
	}
	return &Manager{
		pool:     cache.NewQuotaPool(cacheCapacity, simrng.New(seed)),
		ledger:   remoteio.NewLedger(egress),
		jobs:     make(map[string]*jobState),
		datasets: make(map[string]datasetInfo),
		clock:    clock,
	}
}

// RegisterDataset declares a dataset before jobs may attach to it.
func (m *Manager) RegisterDataset(name string, size, blockSize unit.Bytes) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if blockSize <= 0 || size <= 0 {
		return fmt.Errorf("datamgr: bad dataset %q geometry (%v / %v)", name, size, blockSize)
	}
	n := unit.CeilDiv(size, blockSize)
	if err := m.pool.Register(name, n, blockSize); err != nil {
		return err
	}
	m.datasets[name] = datasetInfo{name: name, size: size, blockSize: blockSize, numBlocks: n}
	return nil
}

// AttachJob binds a job to a dataset (mounting the FUSE folder, in the
// paper's deployment).
func (m *Manager) AttachJob(jobID, dataset string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	di, ok := m.datasets[dataset]
	if !ok {
		return fmt.Errorf("datamgr: job %s attaching unknown dataset %q", jobID, dataset)
	}
	if _, dup := m.jobs[jobID]; dup {
		return fmt.Errorf("datamgr: job %s already attached", jobID)
	}
	js := &jobState{
		id:       jobID,
		dataset:  dataset,
		bucket:   remoteio.NewTokenBucket(0, di.blockSize, m.clock),
		accessed: cache.NewBitset(di.numBlocks),
	}
	js.bucket.SetMetrics(m.bucketMet)
	m.jobs[jobID] = js
	return nil
}

// DetachJob removes a job, releasing its IO allocation. Cache contents
// remain until the dataset's allocation is withdrawn.
func (m *Manager) DetachJob(jobID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.jobs, jobID)
	m.ledger.Remove(jobID)
}

// AllocateCacheSize is the Table 3 API: sets a dataset's cache quota.
// Shrinking evicts uniformly at random, preserving the uniform access
// pattern (§6).
func (m *Manager) AllocateCacheSize(dataset string, size unit.Bytes) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.datasets[dataset]; !ok {
		return fmt.Errorf("datamgr: allocateCacheSize for unknown dataset %q", dataset)
	}
	return m.pool.SetQuota(dataset, size)
}

// AllocateRemoteIO is the Table 3 API: sets a job's remote fetch rate.
func (m *Manager) AllocateRemoteIO(jobID string, speed unit.Bandwidth) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	js, ok := m.jobs[jobID]
	if !ok {
		return fmt.Errorf("datamgr: allocateRemoteIO for unknown job %q", jobID)
	}
	if err := m.ledger.Set(jobID, speed); err != nil {
		return err
	}
	js.bucket.SetRate(speed)
	return nil
}

// ResizeCache applies a cache-capacity fault (or recovery) to the live
// pool: evictFraction of every dataset's cached blocks are invalidated
// uniformly at random (the contents of the failed node) and the pool
// capacity becomes newCapacity. Jobs in flight simply start missing on
// the invalidated blocks — cache is a performance resource, never a
// correctness one (§6), so no job observes an error.
func (m *Manager) ResizeCache(newCapacity unit.Bytes, evictFraction float64) {
	// The pool has its own lock; taking m.mu too keeps the resize
	// atomic with respect to allocation calls.
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pool.EvictFraction(evictFraction)
	m.pool.Resize(newCapacity)
	// Re-derive the epoch-start snapshots from the shrunken contents:
	// the snapshot promised hits this epoch, but the blocks backing that
	// promise may just have died with the node. Leaving it stale would
	// tell the scheduler the job needs no remote IO while every read
	// misses.
	for _, js := range m.jobs {
		if live := m.pool.CachedBlocks(js.dataset); js.effectiveBlocks > live {
			js.effectiveBlocks = live
		}
	}
}

// ResizeEgress applies a remote-IO bandwidth fault (or recovery): the
// ledger capacity changes, oversubscribed allocations are scaled down
// proportionally, and every affected job's token bucket is re-throttled
// to its new rate mid-flight.
func (m *Manager) ResizeEgress(newCapacity unit.Bandwidth) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, bw := range m.ledger.Resize(newCapacity) {
		if js, ok := m.jobs[id]; ok {
			js.bucket.SetRate(bw)
		}
	}
}

// ReadResult describes one block read.
type ReadResult struct {
	Hit bool
	// Wait is how long the caller must stall for the remote fetch to
	// honor the job's throttle (zero on a hit).
	Wait time.Duration
}

// Read performs one block access for a job: a cache hit returns
// immediately (the storage fabric serves peer reads at local speed,
// Figure 3); a miss consumes the job's remote IO budget and reports the
// throttle delay the caller must sleep. Misses are admitted to the
// cache under the dataset's quota (uniform caching).
func (m *Manager) Read(jobID string, block int) (ReadResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	js, ok := m.jobs[jobID]
	if !ok {
		return ReadResult{}, fmt.Errorf("datamgr: read from unknown job %q", jobID)
	}
	di := m.datasets[js.dataset]
	if block < 0 || block >= di.numBlocks {
		return ReadResult{}, fmt.Errorf("datamgr: job %s read block %d of %q (%d blocks)",
			jobID, block, js.dataset, di.numBlocks)
	}
	js.accessed.Set(block)
	out, err := m.pool.Access(js.dataset, cache.BlockID(block))
	if err != nil {
		return ReadResult{}, err
	}
	if out.Hit {
		js.hitBlocks++
		return ReadResult{Hit: true}, nil
	}
	js.missBlocks++
	js.remoteBytes += di.blockSize
	wait := js.bucket.Reserve(di.blockSize)
	return ReadResult{Wait: wait}, nil
}

// EpochStart marks the beginning of a job's next epoch: the access
// bitset resets and the effective cache snapshot is taken (§6 —
// everything cached now will serve this epoch's reads).
func (m *Manager) EpochStart(jobID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	js, ok := m.jobs[jobID]
	if !ok {
		return fmt.Errorf("datamgr: epoch start for unknown job %q", jobID)
	}
	js.accessed.Reset()
	js.effectiveBlocks = m.pool.CachedBlocks(js.dataset)
	js.epoch++
	return nil
}

// JobStats is the fine-grained state the paper's policies may inspect.
type JobStats struct {
	Dataset         string
	Epoch           int
	EffectiveCached unit.Bytes // cache snapshot at epoch start
	AccessedBlocks  int
	HitBlocks       int64
	MissBlocks      int64
	RemoteBytes     unit.Bytes
	RemoteIO        unit.Bandwidth
}

// Stats reports a job's counters.
func (m *Manager) Stats(jobID string) (JobStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	js, ok := m.jobs[jobID]
	if !ok {
		return JobStats{}, fmt.Errorf("datamgr: stats for unknown job %q", jobID)
	}
	di := m.datasets[js.dataset]
	return JobStats{
		Dataset:         js.dataset,
		Epoch:           js.epoch,
		EffectiveCached: unit.Bytes(js.effectiveBlocks) * di.blockSize,
		AccessedBlocks:  js.accessed.Count(),
		HitBlocks:       js.hitBlocks,
		MissBlocks:      js.missBlocks,
		RemoteBytes:     js.remoteBytes,
		RemoteIO:        m.ledger.Get(jobID),
	}, nil
}

// CachedBytes reports a dataset's cached bytes.
func (m *Manager) CachedBytes(dataset string) unit.Bytes {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pool.CachedBytes(dataset)
}

// Quota reports a dataset's current cache allocation.
func (m *Manager) Quota(dataset string) unit.Bytes {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pool.Quota(dataset)
}

// Snapshot serializes the manager's allocation state (not cache
// contents — those live on server disks and survive restarts, §6
// "Fault tolerance").
type Snapshot struct {
	Quotas   map[string]unit.Bytes     `json:"quotas"`
	RemoteIO map[string]unit.Bandwidth `json:"remote_io"`
	Datasets map[string]DatasetGeom    `json:"datasets"`
	Jobs     map[string]string         `json:"jobs"` // job -> dataset
}

// DatasetGeom is a dataset's serializable geometry.
type DatasetGeom struct {
	Size      unit.Bytes `json:"size"`
	BlockSize unit.Bytes `json:"block_size"`
}

// Snapshot captures the allocation state for crash recovery.
func (m *Manager) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Quotas:   make(map[string]unit.Bytes),
		RemoteIO: make(map[string]unit.Bandwidth),
		Datasets: make(map[string]DatasetGeom),
		Jobs:     make(map[string]string),
	}
	for name, di := range m.datasets {
		s.Datasets[name] = DatasetGeom{Size: di.size, BlockSize: di.blockSize}
		s.Quotas[name] = m.pool.Quota(name)
	}
	for id, js := range m.jobs {
		s.Jobs[id] = js.dataset
		s.RemoteIO[id] = m.ledger.Get(id)
	}
	return s
}

// Restore rebuilds a fresh manager's allocation state from a snapshot,
// the recovery path the paper describes (reconstructing from pod
// annotations after a Data Manager crash). Everything replays in sorted
// key order, so the pool's RNG draws and any error are deterministic.
func (m *Manager) Restore(s Snapshot) error {
	for _, name := range sortedKeys(s.Datasets) {
		g := s.Datasets[name]
		if err := m.RegisterDataset(name, g.Size, g.BlockSize); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Quotas) {
		if err := m.AllocateCacheSize(name, s.Quotas[name]); err != nil {
			return err
		}
	}
	for _, id := range sortedKeys(s.Jobs) {
		if err := m.AttachJob(id, s.Jobs[id]); err != nil {
			return err
		}
		if err := m.AllocateRemoteIO(id, s.RemoteIO[id]); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
