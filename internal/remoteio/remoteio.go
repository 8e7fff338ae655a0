// Package remoteio manages the remote IO bandwidth between the GPU
// cluster and cloud storage: an allocation ledger the scheduler writes
// (Table 3: allocateRemoteIO), a demand-based max-min fair divider used
// when remote IO is left uncontrolled (§7.2 ablation), and a
// token-bucket throttle used by the real-time testbed to enforce
// per-job rates.
package remoteio

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

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
//
// silod:hotpath
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
//
// silod:hotpath
func (l *Ledger) Remove(jobID string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total.sub(float64(l.alloc[jobID]))
	delete(l.alloc, jobID)
	l.publishLocked()
}

// Demand is one job's remote IO demand for fair division.
type Demand struct {
	JobID string
	Want  unit.Bandwidth
}

// FairShare divides capacity across demands by progressive filling
// (max-min fairness): every job receives min(want, fair level), and
// capacity freed by small demands is redistributed. This models the
// provider-controlled remote IO of the §7.2 ablation ("a simple fair
// share algorithm for remote IO").
func FairShare(capacity unit.Bandwidth, demands []Demand) map[string]unit.Bandwidth {
	out := make(map[string]unit.Bandwidth, len(demands))
	var d Divider
	grants := d.FairShareInto(nil, capacity, demands)
	for i, dm := range demands {
		out[dm.JobID] = grants[i]
	}
	return out
}

// Divider divides bandwidth into index-aligned slices, recycling its
// sort scratch across calls — for callers (the sim engines' Che fixed
// point) that divide bandwidth thousands of times per run. The
// progressive filling visits demands in (want, then JobID) order via an
// index permutation, which is unique because job IDs are.
type Divider struct {
	idx   []int
	wants []float64
}

// FairShareInto returns FairShare's grants with grants[i] belonging to
// demands[i]. The result aliases out's backing array when capacity
// allows and is valid until the next call.
//
// silod:pure
func (dv *Divider) FairShareInto(out []unit.Bandwidth, capacity unit.Bandwidth, demands []Demand) []unit.Bandwidth {
	out = out[:0]
	for range demands {
		out = append(out, 0)
	}
	if capacity <= 0 || len(demands) == 0 {
		return out
	}
	idx := dv.idx[:0]
	wants := dv.wants[:0]
	for i, d := range demands {
		w := float64(d.Want)
		if w < 0 {
			w = 0
		}
		idx = append(idx, i)
		wants = append(wants, w)
	}
	dv.idx, dv.wants = idx, wants
	sort.Slice(idx, func(a, b int) bool {
		wa, wb := wants[idx[a]], wants[idx[b]]
		if wa != wb {
			return wa < wb
		}
		return demands[idx[a]].JobID < demands[idx[b]].JobID
	})
	remaining := float64(capacity)
	left := len(idx)
	for _, i := range idx {
		level := remaining / float64(left)
		grant := wants[i]
		if grant > level {
			grant = level
		}
		out[i] = unit.Bandwidth(grant)
		remaining -= grant
		left--
	}
	return out
}

// EqualShareInto models the provider-side egress throttle that applies
// when no scheduler controls remote IO (§2.1, §7.2): every running job
// gets an equal static share of the egress capacity, capped at its
// demand. Unlike FairShare there is no redistribution — a cached job's
// unused share idles, which is exactly the inefficiency SiloD's remote
// IO management removes. grants[i] belongs to demands[i]; the result
// aliases out's backing array when capacity allows and is valid until
// the next call.
//
// silod:pure
func (dv *Divider) EqualShareInto(out []unit.Bandwidth, capacity unit.Bandwidth, demands []Demand) []unit.Bandwidth {
	out = out[:0]
	if len(demands) == 0 {
		return out
	}
	share := float64(capacity) / float64(len(demands))
	for _, d := range demands {
		w := float64(d.Want)
		if w < 0 {
			w = 0
		}
		if w > share {
			w = share
		}
		out = append(out, unit.Bandwidth(w))
	}
	return out
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
