// Package remoteio manages the remote IO bandwidth between the GPU
// cluster and cloud storage: an allocation ledger the scheduler writes
// (Table 3: allocateRemoteIO), the one divider of egress bandwidth over
// job demands (max-min water-filling, the top-up of a policy's grants,
// and the provider's static equal split of the §7.2 ablation), and a
// token-bucket throttle used by the real-time testbed to enforce
// per-job rates.
package remoteio

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/keysort"
	"repro/internal/unit"
)

// Ledger tracks per-job remote IO allocations against the cluster's
// egress capacity. Allocations are advisory targets the data plane
// enforces; the ledger validates they never oversubscribe capacity.
// The total is kept exactly (exactSum) and rounded once when read, so
// Set and Remove cost O(1) whatever the job count, and the total's bits
// depend only on the current allocations, not on the order concurrent
// calls landed in. All methods are safe for concurrent use.
type Ledger struct {
	mu       sync.Mutex
	capacity unit.Bandwidth            // guarded by mu (degrades on egress faults)
	alloc    map[string]unit.Bandwidth // guarded by mu
	total    exactSum                  // guarded by mu (the exact sum of alloc)
	met      LedgerMetrics             // guarded by mu
}

// NewLedger returns an empty ledger with the given egress capacity.
func NewLedger(capacity unit.Bandwidth) *Ledger {
	return &Ledger{capacity: capacity, alloc: make(map[string]unit.Bandwidth)}
}

// Resize changes the egress capacity — a link degradation or
// restoration. If existing allocations oversubscribe the new capacity
// they are scaled down proportionally (every job keeps its relative
// share of the shrunken link). The returned map holds the new rate of
// every job whose allocation changed, so callers can re-throttle the
// matching token buckets. Negative and NaN capacities clamp to zero.
func (l *Ledger) Resize(capacity unit.Bandwidth) map[string]unit.Bandwidth {
	if !(capacity >= 0) {
		capacity = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.capacity = capacity
	total := l.total.round()
	if total <= float64(capacity) {
		l.publishLocked()
		return nil
	}
	ratio := float64(capacity) / total
	changed := make(map[string]unit.Bandwidth, len(l.alloc))
	l.total = exactSum{}
	for id, bw := range l.alloc {
		nbw := unit.Bandwidth(float64(bw) * ratio)
		l.alloc[id] = nbw
		changed[id] = nbw
		l.total.add(float64(nbw))
	}
	l.publishLocked()
	return changed
}

// Set assigns bw to jobID. An over-subscribing assignment is rejected
// so scheduler bugs surface immediately instead of as silent slowdowns,
// and so is a negative or non-finite one, which would make every later
// check pass vacuously. A tiny tolerance absorbs floating-point
// round-off from solvers.
func (l *Ledger) Set(jobID string, bw unit.Bandwidth) error {
	if err := checkRate(jobID, bw); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	const tol = 1e-6
	old := l.alloc[jobID]
	next := l.total
	next.add(float64(bw))
	next.sub(float64(old))
	if next.round() > float64(l.capacity)*(1+tol)+1 {
		return l.oversubscribedLocked(jobID, bw, old)
	}
	l.total = next
	l.alloc[jobID] = bw
	l.publishLocked()
	return nil
}

// checkRate rejects the rates no ledger may hold: negative, NaN or
// infinite.
func checkRate(jobID string, bw unit.Bandwidth) error {
	if bw < 0 {
		return fmt.Errorf("remoteio: negative allocation %v for %s", bw, jobID)
	}
	if math.IsNaN(float64(bw)) || math.IsInf(float64(bw), 1) {
		return fmt.Errorf("remoteio: non-finite allocation %v for %s", bw, jobID)
	}
	return nil
}

// oversubscribedLocked is Set's rejection of bw for jobID, which holds
// old; the caller holds l.mu.
func (l *Ledger) oversubscribedLocked(jobID string, bw, old unit.Bandwidth) error {
	already := l.total
	already.sub(float64(old))
	return fmt.Errorf("remoteio: allocating %v to %s oversubscribes capacity %v (already %v)",
		bw, jobID, l.capacity, unit.Bandwidth(already.round()))
}

// Get reports jobID's allocation (0 if none).
func (l *Ledger) Get(jobID string) unit.Bandwidth {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.alloc[jobID]
}

// Remove forgets jobID's allocation.
func (l *Ledger) Remove(jobID string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total.sub(float64(l.alloc[jobID]))
	delete(l.alloc, jobID)
	l.publishLocked()
}

// Divider is the workspace of the module's egress divisions: the
// weighted max-min water-fill (WaterFill) and the top-up that fills
// what given grants leave over (TopUp); the provider's static split
// (EqualSplit) needs none. Every division is index-addressed — job i's
// want is wants[i], its unique ID ids[i], and its share is added to
// grant[i] — and a warm Divider allocates nothing: it recycles its fill
// order and residual scratch across calls. A Divider must not be shared
// between goroutines.
type Divider struct {
	order  []fillItem
	sorter keysort.Sorter[fillItem]
	resid  []float64
}

// fillItem is one job in water-fill order: its normalized want, the
// unique ID its ties fall to, and its index.
type fillItem struct {
	key float64
	id  string
	i   int
}

// fillCmp orders items by normalized want, ascending, ties to the ID: a
// strict total order, so the sorted permutation is unique.
//
// silod:pure
func fillCmp(a, b fillItem) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return strings.Compare(a.id, b.id)
}

// fillKey is fillCmp's prefix key: the normalized want, ascending.
//
// silod:pure
func fillKey(a fillItem) (uint64, bool) { return keysort.Asc(a.key) }

// WaterFill divides capacity over wants by weighted progressive filling
// (max-min fairness) and adds job i's share to grant[i]. Jobs are
// filled in ascending want/weight order: each receives
// min(want, remaining·weight/Σ remaining weights), so capacity a small
// want leaves unused raises the level of the rest. Nil weights mean
// every weight is 1, where the level is remaining/jobs left exactly.
// Jobs with no positive want, and every job when capacity is not
// positive, get nothing. Whatever no want absorbs stays unallocated.
//
// silod:pure
func (d *Divider) WaterFill(grant []float64, capacity float64, wants, weights []float64, ids []string) {
	if capacity <= 0 {
		return
	}
	order := d.order[:0]
	var wleft float64
	for i, want := range wants {
		if want <= 0 {
			continue
		}
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		order = append(order, fillItem{want / w, ids[i], i})
		wleft += w
	}
	d.order = order
	d.sorter.Sort(order, fillKey, fillCmp)
	remaining := capacity
	for _, o := range order {
		w := 1.0
		if weights != nil {
			w = weights[o.i]
		}
		give := min(wants[o.i], remaining*w/wleft)
		grant[o.i] += give
		remaining -= give
		wleft -= w
	}
}

// TopUp keeps the grants already made and water-fills (unweighted) the
// capacity they leave over each job's residual demand wants[i] -
// grant[i]; residuals of 1e-9 or less do not compete. This is the
// work-conserving half of a scheduler-controlled division (§6): egress
// the policy left unallocated goes to jobs whose demand exceeds their
// grant.
//
// silod:pure
func (d *Divider) TopUp(grant []float64, capacity float64, wants []float64, ids []string) {
	var allocated float64
	for _, g := range grant {
		allocated += g
	}
	leftover := capacity - allocated
	if leftover <= 0 {
		return
	}
	resid := d.resid[:0]
	for i, want := range wants {
		r := want - grant[i]
		if r <= 1e-9 {
			r = 0
		}
		resid = append(resid, r)
	}
	d.resid = resid
	d.WaterFill(grant, leftover, resid, nil, ids)
}

// EqualSplit models the provider-side egress throttle that applies
// when no scheduler controls remote IO (§2.1, §7.2): it adds to
// grant[i] an equal static share of capacity, capped at wants[i].
// Unlike WaterFill there is no redistribution — a cached job's unused
// share idles, which is exactly the inefficiency SiloD's remote IO
// management removes. Negative wants get nothing.
//
// silod:pure
func EqualSplit(grant []float64, capacity float64, wants []float64) {
	share := capacity / float64(len(wants))
	for i, want := range wants {
		grant[i] += min(max(want, 0), share)
	}
}

// TokenBucket is a thread-safe rate limiter used by the testbed's FUSE
// client stand-ins to throttle remote fetches to the scheduler-assigned
// rate. It is driven by real wall-clock time scaled by the testbed.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64   // guarded by mu (tokens/bytes per second)
	burst  float64   // immutable after construction (bucket depth in bytes)
	tokens float64   // guarded by mu
	last   time.Time // guarded by mu
	clock  func() time.Time
	met    BucketMetrics // guarded by mu
}

// NewTokenBucket returns a bucket refilling at rate bytes/sec with the
// given burst. A nil clock uses time.Now.
func NewTokenBucket(rate unit.Bandwidth, burst unit.Bytes, clock func() time.Time) *TokenBucket {
	if clock == nil {
		clock = time.Now
	}
	b := &TokenBucket{
		rate:  float64(rate),
		burst: float64(burst),
		clock: clock,
	}
	b.tokens = b.burst
	b.last = clock()
	return b
}

// SetRate changes the refill rate, e.g. after a reallocation.
func (b *TokenBucket) SetRate(rate unit.Bandwidth) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	b.rate = float64(rate)
}

func (b *TokenBucket) refillLocked() {
	now := b.clock()
	dt := now.Sub(b.last).Seconds()
	if dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// Reserve consumes n bytes of budget and returns how long the caller
// must wait before proceeding so the long-run rate holds. The bucket is
// allowed to go negative (a reservation model), which keeps large
// requests exact without chunking.
func (b *TokenBucket) Reserve(n unit.Bytes) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	b.tokens -= float64(n)
	b.met.Egress.Add(int64(n))
	if b.tokens >= 0 {
		return 0
	}
	b.met.Throttles.Inc()
	if b.rate <= 0 {
		// No refill: effectively blocked forever; return a large wait so
		// callers can time out meaningfully.
		return time.Hour * 24 * 365
	}
	deficit := -b.tokens
	return time.Duration(deficit / b.rate * float64(time.Second))
}
