package policy

// The map-based greedy path that the index-addressed workspaces replaced
// — Algorithm 2 with its queue-aware extension, the two remote-IO
// divisions, Quiver, and SJF's and FIFO's Assign — kept verbatim (up
// to the ref prefix and the ID-keyed refAssignment of refassign_test.go
// it writes) as a bit-identity oracle: every grant and quota the
// product computes must equal these to the last bit.

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/simrng"
	"repro/internal/unit"
)

// refGreedyAllocator is Algorithm 2: datasets are cached in descending
// order of cache efficiency (Σ f*/d over the jobs sharing the dataset,
// §6) until the cache is full; partial caching is allowed. Remote IO is
// then divided max-min fairly over instantaneous demands, with a
// warm-up investment pass funding the most cache-efficient filling
// datasets first. This is the policy SiloD uses with estimator-free
// schedulers (§5.3).
//
// The three flags disable individual design choices for the ablation
// benchmarks; production use leaves them false.
type refGreedyAllocator struct {
	// WholeDatasetsOnly disables partial caching (Quiver-style
	// placement granularity).
	WholeDatasetsOnly bool
	// NoHysteresis disables the warm-data tie-breaking, letting
	// equal-efficiency datasets churn quotas as the job set changes.
	NoHysteresis bool
	// PlainFairIO disables the warm-up investment pass: remote IO is a
	// plain max-min fair division over demands.
	PlainFairIO bool
	// PrefetchQueued enables the Hoard-style extension (related work
	// [58]): cache left over after the running jobs' datasets is
	// allocated to *queued* jobs' datasets in cache-efficiency order,
	// so idle egress bandwidth can warm them before they start.
	PrefetchQueued bool
}

// Name implements StorageAllocator.
func (refGreedyAllocator) Name() string { return "silod-greedy" }

// AllocateStorage implements StorageAllocator. Algorithm 2 is a pure
// function of (cluster, running views): allocatorPure's vetting of
// refGreedyAllocator rests on this annotation holding.
func (g refGreedyAllocator) AllocateStorage(c core.Cluster, running []core.JobView, a *refAssignment) {
	type dgroup struct {
		key        string
		size       unit.Bytes
		eff        float64 // Σ f*/d (line 2 of Algorithm 2, summed per §6)
		cachedFrac float64
	}
	groups := make(map[string]*dgroup)
	var order []string
	for _, j := range running {
		g, ok := groups[j.DatasetKey]
		if !ok {
			g = &dgroup{key: j.DatasetKey, size: j.DatasetSize}
			groups[j.DatasetKey] = g
			order = append(order, j.DatasetKey)
		}
		// SLO weighting: a critical tenant's f*/d counts double and a
		// sheddable tenant's half, so under cache pressure the greedy
		// order favors protected tiers. Standard (and untenanted) jobs
		// weigh 1, leaving the single-class order bit-identical to the
		// unweighted Algorithm 2.
		g.eff += j.SLO.Weight() * float64(j.Profile.IdealThroughput) / math.Max(float64(j.DatasetSize), 1)
		if f := float64(j.CachedBytes) / math.Max(float64(j.DatasetSize), 1); f > g.cachedFrac {
			g.cachedFrac = f
		}
	}
	// Warm-data hysteresis: evicting effective cache hurts immediately
	// while newly granted cache only pays off next epoch (§6), so an
	// already-cached dataset wins ties (and near-ties) against a cold
	// one of equal cache efficiency. Without this, the many
	// equal-efficiency private datasets in a production trace reshuffle
	// quotas on every job arrival and the cluster pays a constant
	// re-warm-up tax.
	hyst := 0.5
	if g.NoHysteresis {
		hyst = 0
	}
	sort.Slice(order, func(x, y int) bool {
		gx, gy := groups[order[x]], groups[order[y]]
		ex := gx.eff * (1 + hyst*gx.cachedFrac)
		ey := gy.eff * (1 + hyst*gy.cachedFrac)
		if ex != ey {
			return ex > ey
		}
		return gx.key < gy.key
	})
	totalCache := c.Cache
	for _, key := range order {
		grp := groups[key]
		give := grp.size
		if give > totalCache {
			if g.WholeDatasetsOnly {
				a.CacheQuota[key] = 0
				continue
			}
			give = totalCache
		}
		a.CacheQuota[key] = give
		totalCache -= give
	}
	if g.PlainFairIO {
		refAllocRemoteIOFair(c.RemoteIO, running, a)
		return
	}
	// Remote IO: grant full demand in the same cache-efficiency order.
	// Efficient jobs have small datasets, so funding their warm-up
	// first converts bandwidth into cache hits within minutes and
	// releases the bandwidth for the next tier — the cascade that lets
	// the cluster approach ideal throughput (Figure 11). An equal
	// split would leave every cache cold for hours.
	rank := make(map[string]int, len(order))
	for i, key := range order {
		rank[key] = i
	}
	refAllocRemoteIOPriority(c.RemoteIO, running, a, func(x, y core.JobView) bool {
		if rank[x.DatasetKey] != rank[y.DatasetKey] {
			return rank[x.DatasetKey] < rank[y.DatasetKey]
		}
		return x.ID < y.ID
	})
}

// AllocateStorageQueued implements QueueAwareAllocator: after the
// normal allocation for running jobs, leftover cache goes to queued
// jobs' datasets in cache-efficiency order so the data plane can
// prefetch them with idle egress bandwidth.
func (g refGreedyAllocator) AllocateStorageQueued(c core.Cluster, running, queued []core.JobView, a *refAssignment) {
	g.AllocateStorage(c, running, a)
	if !g.PrefetchQueued || len(queued) == 0 {
		return
	}
	// Sorted-key sum: leftover feeds quota math, and a float total must
	// not depend on per-process map iteration order.
	usedKeys := make([]string, 0, len(a.CacheQuota))
	for key := range a.CacheQuota {
		usedKeys = append(usedKeys, key)
	}
	sort.Strings(usedKeys)
	var used unit.Bytes
	for _, key := range usedKeys {
		used += a.CacheQuota[key]
	}
	leftover := c.Cache - used
	if leftover <= 0 {
		return
	}
	type dgroup struct {
		key  string
		size unit.Bytes
		eff  float64
	}
	groups := make(map[string]*dgroup)
	var order []string
	for _, j := range queued {
		if _, taken := a.CacheQuota[j.DatasetKey]; taken {
			continue // already funded for a running job
		}
		grp, ok := groups[j.DatasetKey]
		if !ok {
			grp = &dgroup{key: j.DatasetKey, size: j.DatasetSize}
			groups[j.DatasetKey] = grp
			order = append(order, j.DatasetKey)
		}
		grp.eff += float64(j.Profile.IdealThroughput) / math.Max(float64(j.DatasetSize), 1)
	}
	sort.Slice(order, func(x, y int) bool {
		gx, gy := groups[order[x]], groups[order[y]]
		if gx.eff != gy.eff {
			return gx.eff > gy.eff
		}
		return gx.key < gy.key
	})
	for _, key := range order {
		grp := groups[key]
		give := grp.size
		if give > leftover {
			give = leftover
		}
		if give <= 0 {
			break
		}
		a.CacheQuota[key] = give
		leftover -= give
	}
}

// refAllocRemoteIOPriority divides remote IO in two stages. First a plain
// max-min water-fill over instantaneous demands — the provider-neutral
// division that fully satisfies every small demand. Then a warm-up
// investment: jobs whose granted cache quota is not yet effective are
// topped up toward their full demand (in the given priority order,
// i.e. cache-efficiency order), funded by taxing half the grants of the
// *unsatisfied non-warming* jobs. Warming an efficient dataset is a
// one-off expense that permanently frees bandwidth, so it finishes
// epochs quickly (Figure 11's near-ideal throughput); jobs already
// fully served by fair share (e.g. BERT's tiny demand) are never taxed,
// which keeps the makespan tail intact.
func refAllocRemoteIOPriority(total unit.Bandwidth, running []core.JobView, a *refAssignment,
	less func(x, y core.JobView) bool) {
	// Stage 1: plain max-min fair share over demands.
	refAllocRemoteIOFair(total, running, a)
	// Identify warming jobs that remain below their demand.
	type topup struct {
		view core.JobView
		gap  float64
	}
	var warming []topup
	var pot float64
	taxed := make(map[string]float64)
	for _, j := range running {
		d := refInstantDemand(j, a)
		g := float64(a.RemoteIO[j.ID])
		gap := d - g
		if gap <= 1e-9 {
			continue // fully served: never taxed, never needs top-up
		}
		if a.CacheQuota[j.DatasetKey] > j.EffectiveCached {
			warming = append(warming, topup{view: j, gap: gap})
		} else {
			// Unsatisfied steady-state job: contribute half its grant
			// to the investment pot.
			tax := g / 2
			pot += tax
			taxed[j.ID] = tax
		}
	}
	if len(warming) == 0 || pot <= 0 {
		return // nothing to invest in (or no one to fund it): keep fair share
	}
	sort.Slice(warming, func(i, j int) bool { return less(warming[i].view, warming[j].view) })
	spent := 0.0
	for i := range warming {
		if pot <= 1e-9 {
			break
		}
		give := math.Min(warming[i].gap, pot)
		a.RemoteIO[warming[i].view.ID] += unit.Bandwidth(give)
		pot -= give
		spent += give
	}
	// Only the spent portion of the tax is actually withheld; the
	// unspent pot stays with its contributors.
	if pot > 1e-9 && spent > 0 {
		totalTax := pot + spent
		for id, tax := range taxed {
			taxed[id] = tax * spent / totalTax
		}
	} else if spent <= 0 {
		return
	}
	for id, tax := range taxed {
		a.RemoteIO[id] -= unit.Bandwidth(tax)
		if a.RemoteIO[id] < 0 {
			a.RemoteIO[id] = 0
		}
	}
}

// refInstantDemand is a job's current remote IO demand given the assigned
// quota and its effective cache.
func refInstantDemand(j core.JobView, a *refAssignment) float64 {
	q := a.CacheQuota[j.DatasetKey]
	if q > j.EffectiveCached {
		q = j.EffectiveCached
	}
	if q > j.DatasetSize {
		q = j.DatasetSize
	}
	miss := 1 - float64(q)/math.Max(float64(j.DatasetSize), 1)
	return float64(j.Profile.IdealThroughput) * miss
}

// refAllocRemoteIOFair grants each running job a weighted max-min fair
// share of the remote IO against its instantaneous demand: the
// effective cache (not the planned quota) determines the current miss
// ratio, because newly granted cache only pays off next epoch (§6). The
// weight is the job's SLO class weight, so under bandwidth contention a
// critical job's fair level is twice a standard job's and four times a
// sheddable job's; with every weight 1 (the untenanted default) the
// division is bit-identical to the unweighted water-fill. The
// allocation is revisited every scheduling round, so grants shrink as
// caches warm.
func refAllocRemoteIOFair(total unit.Bandwidth, running []core.JobView, a *refAssignment) {
	type rec struct {
		id     string
		demand float64
		weight float64
	}
	recs := make([]rec, 0, len(running))
	var wsum float64
	for _, j := range running {
		q := a.CacheQuota[j.DatasetKey]
		if q > j.EffectiveCached {
			q = j.EffectiveCached
		}
		if q > j.DatasetSize {
			q = j.DatasetSize
		}
		miss := 1 - float64(q)/math.Max(float64(j.DatasetSize), 1)
		w := j.SLO.Weight()
		recs = append(recs, rec{j.ID, float64(j.Profile.IdealThroughput) * miss, w})
		wsum += w
	}
	// Water-fill in ascending normalized-demand order: a job whose
	// demand sits below its weighted fair level is fully served and its
	// slack raises the level for the rest.
	sort.Slice(recs, func(i, j int) bool {
		di, dj := recs[i].demand/recs[i].weight, recs[j].demand/recs[j].weight
		if di != dj {
			return di < dj
		}
		return recs[i].id < recs[j].id
	})
	remaining := float64(total)
	wleft := wsum
	for _, r := range recs {
		level := remaining * r.weight / wleft
		grant := math.Min(r.demand, level)
		a.RemoteIO[r.id] = unit.Bandwidth(grant)
		remaining -= grant
		wleft -= r.weight
	}
	// Any slack (all demands met) stays unallocated; the data plane
	// never throttles below demand anyway.
}

// refQuiverAllocator models Quiver [44]: cache is assigned to whole
// datasets in descending benefit-to-cost order, where benefit is the
// online-profiled throughput gain and cost the dataset size. Quiver
// does not support partial caching ("jobs do not benefit from Quiver if
// it cannot entirely fit into the cache", §7.1.1), so datasets that do
// not fit are skipped. ProfileNoise (fractional sigma) models the
// instability of online latency profiling the paper observed (§7.1.2);
// zero disables it.
type refQuiverAllocator struct {
	ProfileNoise float64
	rng          *simrng.RNG

	// Scratch recycled across AllocateStorage calls: the dataset groups
	// in first-seen order, a key→group index, and the sort permutation.
	groups []refQuiverGroup
	byKey  map[string]int
	order  []int
}

type refQuiverGroup struct {
	key        string
	size       unit.Bytes
	benefit    float64
	cachedFrac float64
}

// refNewQuiverAllocator returns a Quiver allocator with seeded profiling
// noise.
func refNewQuiverAllocator(noise float64, seed int64) *refQuiverAllocator {
	return &refQuiverAllocator{ProfileNoise: noise, rng: simrng.New(seed)}
}

// Name implements StorageAllocator.
func (q *refQuiverAllocator) Name() string { return "quiver" }

// AllocateStorage implements StorageAllocator.
func (q *refQuiverAllocator) AllocateStorage(c core.Cluster, running []core.JobView, a *refAssignment) {
	if q.byKey == nil {
		q.byKey = make(map[string]int)
	} else {
		clear(q.byKey)
	}
	groups := q.groups[:0]
	for _, j := range running {
		gi, ok := q.byKey[j.DatasetKey]
		if !ok {
			gi = len(groups)
			groups = append(groups, refQuiverGroup{key: j.DatasetKey, size: j.DatasetSize})
			q.byKey[j.DatasetKey] = gi
		}
		g := &groups[gi]
		g.benefit += float64(j.Profile.IdealThroughput)
		if f := float64(j.CachedBytes) / math.Max(float64(j.DatasetSize), 1); f > g.cachedFrac {
			g.cachedFrac = f
		}
	}
	q.groups = groups
	for gi := range groups {
		g := &groups[gi]
		ratio := g.benefit / math.Max(float64(g.size), 1)
		if q.ProfileNoise > 0 && q.rng != nil {
			ratio *= math.Exp(q.rng.Normal(0, q.ProfileNoise))
		}
		// Hysteresis: an already-cached dataset keeps an edge, as
		// re-profiling an in-cache dataset measures lower latency. The
		// profiling noise still flips near-ties occasionally — the
		// paper's "sometimes wrongly evicts effective data" (§7.1.2) —
		// but a cached dataset is not re-placed every round.
		ratio *= 1 + 0.5*g.cachedFrac
		g.benefit = ratio
	}
	// Index permutation sort: (benefit desc, key asc) is a strict total
	// order (keys are unique), so any comparison sort produces the same
	// unique permutation the historical string-slice sort did.
	order := q.order[:0]
	for gi := range groups {
		order = append(order, gi)
	}
	q.order = order
	sort.Slice(order, func(x, y int) bool {
		gx, gy := &groups[order[x]], &groups[order[y]]
		if gx.benefit != gy.benefit {
			return gx.benefit > gy.benefit
		}
		return gx.key < gy.key
	})
	remaining := c.Cache
	for _, gi := range order {
		g := &groups[gi]
		if g.size <= remaining {
			a.CacheQuota[g.key] = g.size
			remaining -= g.size
		} else {
			a.CacheQuota[g.key] = 0 // no partial caching
		}
	}
}

// refSJF is multi-resource shortest-job-first (Tetris [30] / Tiresias [34]
// unified, §5.1): each job's score is its weighted resource footprint
// multiplied by its remaining duration (Eq. 6), and jobs are scheduled
// in ascending score order.
//
// In the vanilla form the performance estimator ignores storage, so the
// score is (g/G) · remaining/f* and cache/remote IO come from the
// configured baseline allocator. In the Enhanced form the estimator is
// SiloDPerf (Eq. 7): the score minimizes over cache allocations —
// because the footprint is linear in c the minimum is at c = 0 or
// c = d — and the policy then allocates each admitted job its
// score-minimizing storage in score order, which implicitly favors
// cache-efficient jobs (§5.1).
type refSJF struct {
	Enhanced bool
	// Storage is the baseline allocator used when Enhanced is false.
	Storage refStorageAllocator

	// scratch's maps are recycled across Assign calls; each returned
	// Assignment is valid only until the next Assign. The buffers below
	// are likewise per-call scratch.
	scratch  refAssignment
	items    []refSJFScored
	ordBuf   []core.JobView
	admitBuf []core.JobView
	rankBuf  map[string]int
}

// refSJFScored is one job with its Eq. 6/7 score, the unit refSJF sorts.
type refSJFScored struct {
	view      core.JobView
	score     float64
	wantCache unit.Bytes
}

// refSJFScore evaluates Eq. 6/7 for one job, returning the score and the
// score-minimizing cache choice (0 or the full dataset). Weights are
// w_t = 1/totalResource[t] per Tetris [30].
func refSJFScore(c core.Cluster, j core.JobView, enhanced bool) (score float64, wantCache unit.Bytes) {
	g := float64(j.NumGPUs) / math.Max(float64(c.GPUs), 1)
	fstar := float64(j.Profile.IdealThroughput)
	rem := float64(j.RemainingBytes)
	if fstar <= 0 {
		return math.Inf(1), 0
	}
	duration := rem / fstar
	if !enhanced {
		return g * duration, 0
	}
	d := float64(j.DatasetSize)
	wc := 1 / math.Max(float64(c.Cache), 1)
	wb := 1 / math.Max(float64(c.RemoteIO), 1)
	// c = 0: footprint g/G + f*·w_b (full remote IO demand).
	score0 := (g + wb*fstar) * duration
	// c = d: footprint g/G + d·w_c (no remote IO needed).
	scoreD := (g + wc*d) * duration
	if scoreD < score0 {
		return scoreD, unit.Bytes(d)
	}
	return score0, 0
}

// Assign implements core.Policy. refSJF is preemptive at scheduling-round
// granularity, as in Tiresias: the score order alone decides who runs.
// The Eq. 6/7 score never consults `now` (remaining duration comes
// from RemainingBytes), which is what PureAssign's claim rests on.
func (s *refSJF) Assign(c core.Cluster, now unit.Time, jobs []core.JobView) refAssignment {
	a := s.scratch.Reset()
	items := s.items[:0]
	for _, j := range jobs {
		sc, want := refSJFScore(c, j, s.Enhanced)
		items = append(items, refSJFScored{j, sc, want})
	}
	s.items = items
	sort.Slice(items, func(i, j int) bool {
		if items[i].score != items[j].score {
			return items[i].score < items[j].score
		}
		return items[i].view.ID < items[j].view.ID
	})
	ordered := s.ordBuf[:0]
	for _, it := range items {
		ordered = append(ordered, it.view)
	}
	s.ordBuf = ordered
	refAdmitGangs(a.GPUs, c.GPUs, ordered)

	s.admitBuf = refAdmittedViewsInto(s.admitBuf, jobs, a.GPUs)
	running := s.admitBuf
	if !s.Enhanced {
		s.Storage.AllocateStorage(c, running, &a)
		return a
	}

	// Integrated storage allocation in score order: each admitted job
	// receives its score-minimizing cache (partial if the pool is
	// nearly full — Eq. 4 still benefits from partial caching) and the
	// remote IO to stay compute-bound.
	remCache := c.Cache
	for _, it := range items {
		if a.GPUs[it.view.ID] == 0 {
			continue
		}
		key := it.view.DatasetKey
		have := a.CacheQuota[key]
		want := it.wantCache
		if want > it.view.DatasetSize {
			want = it.view.DatasetSize
		}
		if want > have {
			extra := want - have
			if extra > remCache {
				extra = remCache
			}
			a.CacheQuota[key] = have + extra
			remCache -= extra
		}
	}
	// Remote IO in score order: the jobs refSJF wants done first get their
	// demand first, so their warm-up (and completion) is never gated on
	// an equal split.
	if s.rankBuf == nil {
		s.rankBuf = make(map[string]int, len(items))
	} else {
		clear(s.rankBuf)
	}
	scoreRank := s.rankBuf
	for i, it := range items {
		scoreRank[it.view.ID] = i
	}
	refAllocRemoteIOPriority(c.RemoteIO, running, &a, func(x, y core.JobView) bool {
		return scoreRank[x.ID] < scoreRank[y.ID]
	})
	return a
}

// refFIFO admits jobs in submission order without preemption and delegates
// storage to the configured allocator. With Storage set to
// refGreedyAllocator this is FIFO-SiloD (§5.3: SiloD follows the FIFO
// order and allocates cache/remote IO for the scheduled jobs); with a
// baseline allocator it reproduces the paper's FIFO-on-Alluxio /
// CoorDL / Quiver configurations.
type refFIFO struct {
	Storage refStorageAllocator

	// scratch's maps are recycled across Assign calls; each returned
	// Assignment is valid only until the next Assign. The view buffers
	// below are likewise per-call scratch.
	scratch  refAssignment
	sortBuf  []core.JobView
	ordBuf   []core.JobView
	admitBuf []core.JobView
}

// refRunningFirstInto reorders jobs into dst (reused via dst[:0]) so
// currently running jobs come first, in queue order — non-preemptive
// admission.
func refRunningFirstInto(dst []core.JobView, ordered []core.JobView) []core.JobView {
	out := dst[:0]
	for _, j := range ordered {
		if j.Running {
			out = append(out, j)
		}
	}
	for _, j := range ordered {
		if !j.Running {
			out = append(out, j)
		}
	}
	return out
}

// Assign implements core.Policy. The annotation is what PureAssign's
// claim rests on: admission order is a function of the views alone,
// so purity reduces to the allocator's — which is exactly what the
// assume= clause delegates to the runtime vetting in pure.go.
func (f *refFIFO) Assign(c core.Cluster, now unit.Time, jobs []core.JobView) refAssignment {
	a := f.scratch.Reset()
	f.sortBuf = core.SortJobsInto(f.sortBuf, jobs)
	f.ordBuf = refRunningFirstInto(f.ordBuf, f.sortBuf)
	refAdmitGangs(a.GPUs, c.GPUs, f.ordBuf)
	f.admitBuf = refAdmittedViewsInto(f.admitBuf, jobs, a.GPUs)
	running := f.admitBuf
	if qa, ok := f.Storage.(refQueueAwareAllocator); ok {
		var queued []core.JobView
		for _, j := range jobs {
			if a.GPUs[j.ID] == 0 {
				queued = append(queued, j)
			}
		}
		qa.AllocateStorageQueued(c, running, queued, &a)
		return a
	}
	f.Storage.AllocateStorage(c, running, &a)
	return a
}
