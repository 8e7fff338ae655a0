package policy

import (
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/keysort"
	"repro/internal/remoteio"
	"repro/internal/simrng"
	"repro/internal/unit"
)

// StorageAllocator decides cache quotas (and, for SiloD, remote IO) for
// jobs that have already been granted GPUs. Baseline cache systems
// implement this interface so they can be composed with any GPU policy;
// they leave every Assignment.RemoteIO grant zero, which the simulator
// interprets as provider-controlled fair sharing (§7.2).
type StorageAllocator interface {
	Name() string
	// AllocateStorage fills a.CacheQuota (and optionally a.RemoteIO)
	// for the running jobs jobs[running[k]]: running holds positions
	// into jobs, ascending, and a's grants are by the same positions.
	AllocateStorage(c core.Cluster, jobs []core.JobView, running []int, a *core.Assignment)
}

// QueueAwareAllocator is the optional extension for allocators that
// also plan cache for queued jobs (dataset prefetching); policies that
// know their queue probe for it. queued holds positions into jobs, like
// running.
type QueueAwareAllocator interface {
	AllocateStorageQueued(c core.Cluster, jobs []core.JobView, running, queued []int, a *core.Assignment)
}

// GreedyAllocator is Algorithm 2: datasets are cached in descending
// order of cache efficiency (Σ f*/d over the jobs sharing the dataset,
// §6) until the cache is full; partial caching is allowed. Remote IO is
// then divided max-min fairly over instantaneous demands, with a
// warm-up investment pass funding the most cache-efficient filling
// datasets first. This is the policy SiloD uses with estimator-free
// schedulers (§5.3).
//
// The four flags select individual design choices for the ablation
// benchmarks; production use leaves them false. Everything else is
// workspace, reset on every call and addressed by dataset index (first
// encounter of DatasetKey over the call's running views) and by running
// position, so a warm allocator allocates nothing. A GreedyAllocator
// belongs to one policy instance: it must not be shared between
// goroutines, nor copied once used.
type GreedyAllocator struct {
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

	dsIndex map[string]int // DatasetKey → dataset index
	ds      []greedyDataset
	jobDS   []int    // running position → dataset index
	order   []ranked // dataset indices in allocation order
	sorter  keysort.Sorter[ranked]
	io      ioScratch
}

// greedyDataset is one dataset of a greedy call.
type greedyDataset struct {
	key        string
	size       unit.Bytes // DatasetSize of its first job
	eff        float64    // Σ f*/d (line 2 of Algorithm 2, summed per §6)
	cachedFrac float64    // max CachedBytes/d: the warm-data hysteresis input
	quota      unit.Bytes // the quota written for key
	rank       int        // position in allocation order
}

// ranked is the record every greedy-path sort moves: a precomputed
// score, the unique ID (job ID or dataset key) its ties fall to, and
// the index it stands for. Sorting it never copies a JobView.
type ranked struct {
	score float64
	id    string
	i     int
}

// rankedAsc and rankedDesc order records by score, ties to the ID: a
// strict total order (see byScore), so every sort reaches the unique
// permutation the map-based comparators reached.
//
// silod:pure
func rankedAsc(a, b ranked) int { return byScore(a.score, b.score, a.id, b.id, false) }

// silod:pure
func rankedDesc(a, b ranked) int { return byScore(a.score, b.score, a.id, b.id, true) }

// rankedAscKey and rankedDescKey are their keysort prefix keys.
//
// silod:pure
func rankedAscKey(r ranked) (uint64, bool) { return keysort.Asc(r.score) }

// silod:pure
func rankedDescKey(r ranked) (uint64, bool) { return keysort.Desc(r.score) }

// Name implements StorageAllocator.
func (*GreedyAllocator) Name() string { return "silod-greedy" }

// AllocateStorage implements StorageAllocator. Algorithm 2 is a pure
// function of (cluster, running views): allocatorPure's vetting of
// GreedyAllocator rests on this annotation holding.
//
// silod:pure
func (g *GreedyAllocator) AllocateStorage(c core.Cluster, jobs []core.JobView, running []int, a *core.Assignment) {
	idx := resetMap(&g.dsIndex)
	ds := g.ds[:0]
	jobDS := resize(&g.jobDS, len(running))
	for k, i := range running {
		j := &jobs[i]
		d, ok := idx[j.DatasetKey]
		if !ok {
			d = len(ds)
			idx[j.DatasetKey] = d
			ds = append(ds, greedyDataset{key: j.DatasetKey, size: j.DatasetSize})
		}
		jobDS[k] = d
		// SLO weighting: a critical tenant's f*/d counts double and a
		// sheddable tenant's half, so under cache pressure the greedy
		// order favors protected tiers. Standard (and untenanted) jobs
		// weigh 1, leaving the single-class order bit-identical to the
		// unweighted Algorithm 2.
		ds[d].eff += j.SLO.Weight() * float64(j.Profile.IdealThroughput) / math.Max(float64(j.DatasetSize), 1)
		if f := float64(j.CachedBytes) / math.Max(float64(j.DatasetSize), 1); f > ds[d].cachedFrac {
			ds[d].cachedFrac = f
		}
	}
	g.ds = ds
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
	order := g.order[:0]
	for d := range ds {
		order = append(order, ranked{ds[d].eff * (1 + hyst*ds[d].cachedFrac), ds[d].key, d})
	}
	g.sorter.Sort(order, rankedDescKey, rankedDesc)
	g.order = order
	totalCache := c.Cache
	for r, o := range order {
		grp := &ds[o.i]
		grp.rank = r
		give := grp.size
		if give > totalCache {
			if g.WholeDatasetsOnly {
				grp.quota = 0
				a.CacheQuota[grp.key] = 0
				continue
			}
			give = totalCache
		}
		grp.quota = give
		a.CacheQuota[grp.key] = give
		totalCache -= give
	}
	// Remote IO: grant full demand in the same cache-efficiency order.
	// Efficient jobs have small datasets, so funding their warm-up
	// first converts bandwidth into cache hits within minutes and
	// releases the bandwidth for the next tier — the cascade that lets
	// the cluster approach ideal throughput (Figure 11). An equal
	// split would leave every cache cold for hours.
	quota, rank := g.io.reset(len(running))
	for k, d := range jobDS {
		quota[k] = ds[d].quota
		rank[k] = ds[d].rank
	}
	if g.PlainFairIO {
		g.io.fair(c.RemoteIO, jobs, running)
	} else {
		g.io.priority(c.RemoteIO, jobs, running)
	}
	g.io.write(running, a)
}

// AllocateStorageQueued implements QueueAwareAllocator: after the
// normal allocation for running jobs, leftover cache goes to queued
// jobs' datasets in cache-efficiency order so the data plane can
// prefetch them with idle egress bandwidth. a must arrive with no cache
// quotas (a Reset assignment, as every policy passes): the running
// datasets' quotas are then exactly a's.
//
// silod:pure
func (g *GreedyAllocator) AllocateStorageQueued(c core.Cluster, jobs []core.JobView, running, queued []int, a *core.Assignment) {
	g.AllocateStorage(c, jobs, running, a)
	if !g.PrefetchQueued || len(queued) == 0 {
		return
	}
	// Sorted-key sum: leftover feeds quota math, and a float total must
	// not depend on per-process map iteration order. Equal scores make
	// the sort a sort by key.
	ds := g.ds
	byKey := g.order[:0]
	for d := range ds {
		byKey = append(byKey, ranked{0, ds[d].key, d})
	}
	slices.SortFunc(byKey, rankedAsc)
	var used unit.Bytes
	for _, o := range byKey {
		used += ds[o.i].quota
	}
	leftover := c.Cache - used
	if leftover <= 0 {
		g.order = byKey
		return
	}
	idx := g.dsIndex
	nrun := len(ds)
	for _, i := range queued {
		j := &jobs[i]
		d, ok := idx[j.DatasetKey]
		if ok && d < nrun {
			continue // already funded for a running job
		}
		if !ok {
			d = len(ds)
			idx[j.DatasetKey] = d
			ds = append(ds, greedyDataset{key: j.DatasetKey, size: j.DatasetSize})
		}
		ds[d].eff += float64(j.Profile.IdealThroughput) / math.Max(float64(j.DatasetSize), 1)
	}
	g.ds = ds
	order := byKey[:0]
	for d := nrun; d < len(ds); d++ {
		order = append(order, ranked{ds[d].eff, ds[d].key, d})
	}
	slices.SortFunc(order, rankedDesc)
	g.order = order
	for _, o := range order {
		grp := &ds[o.i]
		give := grp.size
		if give > leftover {
			give = leftover
		}
		if give <= 0 {
			break
		}
		a.CacheQuota[grp.key] = give
		leftover -= give
	}
}

// ioScratch is the remote-IO division's workspace, addressed by running
// position k (the job jobs[running[k]]): the caller fills quota
// (a.CacheQuota of the job's dataset) and rank (its investment
// priority, lower first) through reset, fair or priority computes
// grant, and write copies it into the assignment. Its owner resets it
// on every call.
type ioScratch struct {
	quota  []unit.Bytes
	rank   []int
	demand []float64 // instantaneous demand
	weight []float64 // SLO weight
	ids    []string
	grant  []float64
	order  []ranked // the warming jobs
	taxed  []taxed
	div    remoteio.Divider
}

// taxed is one unsatisfied steady-state job's contribution to the
// investment pot.
type taxed struct {
	k   int
	tax float64
}

// reset sizes the workspace for n running jobs and returns the quota
// and rank slices for the caller to fill.
//
// silod:pure
func (w *ioScratch) reset(n int) (quota []unit.Bytes, rank []int) {
	return resize(&w.quota, n), resize(&w.rank, n)
}

// write copies the grants into a.RemoteIO at the running positions.
//
// silod:pure
func (w *ioScratch) write(running []int, a *core.Assignment) {
	for k, i := range running {
		a.RemoteIO[i] = unit.Bandwidth(w.grant[k])
	}
}

// priority divides remote IO in two stages. First a plain max-min
// water-fill over instantaneous demands — the provider-neutral division
// that fully satisfies every small demand. Then a warm-up investment:
// jobs whose granted cache quota is not yet effective are topped up
// toward their full demand (in rank order, i.e. cache-efficiency order),
// funded by taxing half the grants of the *unsatisfied non-warming*
// jobs. Warming an efficient dataset is a one-off expense that
// permanently frees bandwidth, so it finishes epochs quickly (Figure
// 11's near-ideal throughput); jobs already fully served by fair share
// (e.g. BERT's tiny demand) are never taxed, which keeps the makespan
// tail intact.
//
// silod:pure
func (w *ioScratch) priority(total unit.Bandwidth, jobs []core.JobView, running []int) {
	// Stage 1: plain max-min fair share over demands.
	w.fair(total, jobs, running)
	grant := w.grant
	// Identify warming jobs that remain below their demand.
	warming := w.order[:0]
	taxes := w.taxed[:0]
	var pot float64
	for k, i := range running {
		j := &jobs[i]
		g := grant[k]
		gap := w.demand[k] - g
		if gap <= 1e-9 {
			continue // fully served: never taxed, never needs top-up
		}
		if w.quota[k] > j.EffectiveCached {
			w.demand[k] = gap // from here on, what a top-up may add
			warming = append(warming, ranked{float64(w.rank[k]), j.ID, k})
		} else {
			// Unsatisfied steady-state job: contribute half its grant
			// to the investment pot.
			tax := g / 2
			pot += tax
			taxes = append(taxes, taxed{k, tax})
		}
	}
	w.order, w.taxed = warming, taxes
	if len(warming) == 0 || pot <= 0 {
		return // nothing to invest in (or no one to fund it): keep fair share
	}
	slices.SortFunc(warming, rankedAsc)
	spent := 0.0
	for _, o := range warming {
		if pot <= 1e-9 {
			break
		}
		give := math.Min(w.demand[o.i], pot)
		grant[o.i] += give
		pot -= give
		spent += give
	}
	// Only the spent portion of the tax is actually withheld; the
	// unspent pot stays with its contributors.
	if pot > 1e-9 && spent > 0 {
		totalTax := pot + spent
		for t := range taxes {
			taxes[t].tax = taxes[t].tax * spent / totalTax
		}
	} else if spent <= 0 {
		return
	}
	for _, t := range taxes {
		grant[t.k] -= t.tax
		if grant[t.k] < 0 {
			grant[t.k] = 0
		}
	}
}

// instantDemand is a job's current remote IO demand given its dataset's
// assigned quota q and its effective cache.
//
// silod:pure
func instantDemand(j *core.JobView, q unit.Bytes) float64 {
	if q > j.EffectiveCached {
		q = j.EffectiveCached
	}
	if q > j.DatasetSize {
		q = j.DatasetSize
	}
	miss := 1 - float64(q)/math.Max(float64(j.DatasetSize), 1)
	return float64(j.Profile.IdealThroughput) * miss
}

// fair grants each running job a weighted max-min fair share of the
// remote IO against its instantaneous demand: the effective cache (not
// the planned quota) determines the current miss ratio, because newly
// granted cache only pays off next epoch (§6). The weight is the job's
// SLO class weight, so under bandwidth contention a critical job's fair
// level is twice a standard job's and four times a sheddable job's;
// with every weight 1 (the untenanted default) the division is
// bit-identical to the unweighted water-fill. Any slack (all demands
// met) stays unallocated; the data plane never throttles below demand
// anyway. The allocation is revisited every scheduling round, so grants
// shrink as caches warm.
//
// silod:pure
func (w *ioScratch) fair(total unit.Bandwidth, jobs []core.JobView, running []int) {
	n := len(running)
	demand := resize(&w.demand, n)
	weight := resize(&w.weight, n)
	ids := resize(&w.ids, n)
	grant := resize(&w.grant, n)
	for k, i := range running {
		j := &jobs[i]
		demand[k] = instantDemand(j, w.quota[k])
		weight[k] = j.SLO.Weight()
		ids[k] = j.ID
		grant[k] = 0
	}
	w.div.WaterFill(grant, float64(total), demand, weight, ids)
}

// QuiverAllocator models Quiver [44]: cache is assigned to whole
// datasets in descending benefit-to-cost order, where benefit is the
// online-profiled throughput gain and cost the dataset size. Quiver
// does not support partial caching ("jobs do not benefit from Quiver if
// it cannot entirely fit into the cache", §7.1.1), so datasets that do
// not fit are skipped. ProfileNoise (fractional sigma) models the
// instability of online latency profiling the paper observed (§7.1.2);
// zero disables it.
type QuiverAllocator struct {
	ProfileNoise float64
	rng          *simrng.RNG

	// Scratch recycled across AllocateStorage calls: the dataset groups
	// in first-seen order, a key→group index, and the sort records.
	groups []quiverGroup
	byKey  map[string]int
	order  []ranked
}

type quiverGroup struct {
	key        string
	size       unit.Bytes
	benefit    float64
	cachedFrac float64
}

// NewQuiverAllocator returns a Quiver allocator with seeded profiling
// noise.
func NewQuiverAllocator(noise float64, seed int64) *QuiverAllocator {
	return &QuiverAllocator{ProfileNoise: noise, rng: simrng.New(seed)}
}

// Name implements StorageAllocator.
func (q *QuiverAllocator) Name() string { return "quiver" }

// AllocateStorage implements StorageAllocator.
func (q *QuiverAllocator) AllocateStorage(c core.Cluster, jobs []core.JobView, running []int, a *core.Assignment) {
	byKey := resetMap(&q.byKey)
	groups := q.groups[:0]
	for _, i := range running {
		j := &jobs[i]
		gi, ok := byKey[j.DatasetKey]
		if !ok {
			gi = len(groups)
			groups = append(groups, quiverGroup{key: j.DatasetKey, size: j.DatasetSize})
			byKey[j.DatasetKey] = gi
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
	// (benefit desc, key asc) is a strict total order (keys are
	// unique), so the sort produces the same unique permutation the
	// historical string-slice sort did.
	order := q.order[:0]
	for gi := range groups {
		order = append(order, ranked{groups[gi].benefit, groups[gi].key, gi})
	}
	slices.SortFunc(order, rankedDesc)
	q.order = order
	remaining := c.Cache
	for _, o := range order {
		g := &groups[o.i]
		if g.size <= remaining {
			a.CacheQuota[g.key] = g.size
			remaining -= g.size
		} else {
			a.CacheQuota[g.key] = 0 // no partial caching
		}
	}
}

// CoorDLAllocator models CoorDL [50]: each job caches independently in
// the local storage of its own VMs, uniformly (no eviction). The quota
// is static — proportional to the job's share of the cluster's GPUs,
// which is how per-VM local SSDs apportion in practice — and keyed by
// job (the CacheKeyPerJob mode), since CoorDL caches are not shared
// even between jobs training the same dataset.
type CoorDLAllocator struct{}

// Name implements StorageAllocator.
func (CoorDLAllocator) Name() string { return "coordl" }

// AllocateStorage implements StorageAllocator.
//
// silod:pure
func (CoorDLAllocator) AllocateStorage(c core.Cluster, jobs []core.JobView, running []int, a *core.Assignment) {
	if c.GPUs <= 0 {
		return
	}
	perGPU := float64(c.Cache) / float64(c.GPUs)
	for _, i := range running {
		j := &jobs[i]
		quota := unit.Bytes(perGPU * float64(j.NumGPUs))
		if quota > j.DatasetSize {
			quota = j.DatasetSize
		}
		// CoorDL caches are private: key by job, not dataset.
		a.CacheQuota[coorDLKey(j.ID)] = quota
	}
}

// coorDLKey is the cache accounting key of a CoorDL private cache.
//
// silod:pure
func coorDLKey(jobID string) string { return "job:" + jobID }

// CoorDLKey exposes the private-cache key derivation for the simulator.
func CoorDLKey(jobID string) string { return coorDLKey(jobID) }

// AlluxioAllocator models Alluxio's default deployment: the cache runs
// its own LRU replacement with no scheduler-driven quotas at all, so
// AllocateStorage assigns nothing. The simulator pairs this allocator
// with an LRU cache model.
type AlluxioAllocator struct{}

// Name implements StorageAllocator.
func (AlluxioAllocator) Name() string { return "alluxio" }

// AllocateStorage implements StorageAllocator.
//
// silod:pure
func (AlluxioAllocator) AllocateStorage(core.Cluster, []core.JobView, []int, *core.Assignment) {}
