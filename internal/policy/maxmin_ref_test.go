package policy

// The map-based max-min solver and enhanced Gavel storage tail that
// MaxMinSolver's index-addressed workspace replaced, kept verbatim (up
// to the ref prefix and the ID-keyed refAssignment of refassign_test.go
// it writes) as a bit-identity oracle: every quota and grant the
// product computes must equal these to the last bit.

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/unit"
)

// refStorageJob is one job in the max-min storage program: a job that has
// already been granted GPUs and now competes for cache and remote IO.
type refStorageJob struct {
	view core.JobView
	// perfEqual is SiloDPerf under the equal division R_equal (Eq. 8's
	// denominator), in bytes/s.
	perfEqual float64
}

// Storage solves the storage part of Eq. 9 exactly: maximize the
// minimum normalized performance min_j SiloDPerf(j, R_j)/SiloDPerf(j,
// R_equal) subject to Σ cache <= totalCache and Σ remoteIO <= totalIO,
// then progressively fills: jobs whose performance saturates at f* are
// frozen at their minimal allocation and the remaining resources are
// re-maximized over the rest, and any final slack is spent by cache
// efficiency. Datasets shared by several jobs are charged once and the
// merged demand is considered jointly (§6).
//
// The inner feasibility test exploits the closed form (Eq. 4): to give
// job j throughput t with cache c it needs remote IO t·(1-c/d), so a
// byte of cache on dataset D saves Σ_{j∈D} t_j/d bytes/s of bandwidth —
// cache therefore goes to datasets in decreasing order of that ratio,
// and feasibility reduces to a single bandwidth comparison.
//
// It is a pure function of its arguments (no clock, no RNG, no
// map-order dependence).
func refStorage(totalCache unit.Bytes, totalIO unit.Bandwidth, jobs []core.JobView) map[string]StorageAlloc {
	out := make(map[string]StorageAlloc, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	// Equal division: every job gets cache/n on its dataset and io/n.
	n := float64(len(jobs))
	sjobs := make([]refStorageJob, 0, len(jobs))
	for _, j := range jobs {
		equal := estimator.Resources{
			Cache:    unit.Bytes(float64(totalCache) / n),
			RemoteIO: unit.Bandwidth(float64(totalIO) / n),
		}
		pe := float64(j.Profile.Perf(equal))
		if pe <= 0 {
			// A job that can make no progress even under equal share
			// (e.g. zero bandwidth and no cache): normalize by f* so the
			// program remains well-defined.
			pe = float64(j.Profile.IdealThroughput)
		}
		sjobs = append(sjobs, refStorageJob{view: j, perfEqual: pe})
	}

	active := sjobs
	remCache := float64(totalCache)
	remIO := float64(totalIO)
	// Progressive filling: at most len(jobs) rounds.
	for len(active) > 0 {
		probe := refNewLambdaProbe(active)
		lambda := probe.maxFeasibleLambda(remCache, remIO)
		alloc := probe.allocate(remCache, remIO, lambda)
		// Jobs capped at f* under this lambda are saturated: freeze them.
		var next []refStorageJob
		frozeAny := false
		for i, sj := range active {
			target := math.Min(lambda*sj.perfEqual, float64(sj.view.Profile.IdealThroughput))
			saturated := target >= float64(sj.view.Profile.IdealThroughput)-1e-9
			if saturated {
				out[sj.view.ID] = alloc[i]
				remCache -= float64(alloc[i].Cache)
				remIO -= float64(alloc[i].RemoteIO)
				frozeAny = true
			} else {
				next = append(next, sj)
			}
		}
		if !frozeAny {
			// No job saturated: the bottleneck binds all remaining jobs;
			// record their allocations and stop.
			for i, sj := range active {
				out[sj.view.ID] = alloc[i]
				remCache -= float64(alloc[i].Cache)
				remIO -= float64(alloc[i].RemoteIO)
			}
			break
		}
		active = next
	}
	refSpendSlack(remCache, remIO, jobs, out)
	refMergeSharedCache(jobs, out)
	return out
}

// refProbeGroup is one dataset group inside a refLambdaProbe. Membership,
// size, and the hysteresis fraction are lambda-invariant; rate and
// cache are recomputed per probe.
type refProbeGroup struct {
	size float64 // dataset size d
	eff  float64 // max effective-cached fraction among members
	// maxSize and hyst are the λ-invariant factors of the scan score
	// rate/max(size,1)·(1+0.5·eff), precomputed once per probe so the
	// per-λ sort touches only flat slices.
	maxSize float64 // math.Max(size, 1)
	hyst    float64 // 1 + 0.5·eff
	members []int
	rate    float64 // Σ targets of jobs in the group (per probe)
	cache   float64 // cache granted to the group (per probe)
}

// refLambdaProbe memoizes the throughput matrix of one progressive-filling
// round: the per-job equal-share performance, the dataset grouping, and
// the group scan order are all functions of the (job set, cluster)
// generation alone, so they are built once and shared by every lambda
// the bisection probes. Each probe then only refreshes the per-group
// target rates, re-sorts the scan order, and sums the required
// bandwidth — no per-probe allocation. Groups live in a flat slice
// indexed in first-encounter order; the per-λ sort compares precomputed
// scores through an int permutation, so the comparator performs no map
// lookups and no string compares except on exact score ties.
type refLambdaProbe struct {
	jobs    []refStorageJob
	targets []float64
	keys    []string // group keys, first-encounter order == group index order
	groupOf []int    // job index -> group index
	groups  []refProbeGroup
	order   []int          // scratch: group indices re-sorted by bandwidth-saved-per-byte
	scores  []float64      // scratch: per-group scan score at the current λ
	allocs  []StorageAlloc // scratch for allocate
}

// refNewLambdaProbe builds the lambda-invariant state for one round.
func refNewLambdaProbe(jobs []refStorageJob) *refLambdaProbe {
	p := &refLambdaProbe{
		jobs:    jobs,
		targets: make([]float64, len(jobs)),
		groupOf: make([]int, len(jobs)),
	}
	index := make(map[string]int, len(jobs))
	for i, sj := range jobs {
		key := sj.view.DatasetKey
		gi, ok := index[key]
		if !ok {
			gi = len(p.groups)
			index[key] = gi
			p.groups = append(p.groups, refProbeGroup{size: float64(sj.view.DatasetSize)})
			p.keys = append(p.keys, key)
		}
		g := &p.groups[gi]
		if f := float64(sj.view.CachedBytes) / math.Max(float64(sj.view.DatasetSize), 1); f > g.eff {
			g.eff = f
		}
		g.members = append(g.members, i)
		p.groupOf[i] = gi
	}
	for gi := range p.groups {
		g := &p.groups[gi]
		g.maxSize = math.Max(g.size, 1)
		g.hyst = 1 + 0.5*g.eff
	}
	p.order = make([]int, len(p.groups))
	for gi := range p.order {
		p.order[gi] = gi
	}
	p.scores = make([]float64, len(p.groups))
	p.allocs = make([]StorageAlloc, len(jobs))
	return p
}

// split computes every job's target throughput min(lambda·perfEqual,
// f*) and the greedy cache division at that lambda: cache goes to
// dataset groups in decreasing order of bandwidth-saved-per-byte
// (g.rate/g.size), with the warm-data hysteresis used throughout
// SiloD's allocators so already-effective datasets win near-ties and
// quotas stay stable as the job set churns.
//
// Both mins are the builtin min, as in the solver, not math.Min: the
// solver's NaN rule is the contract. The two differ only when one
// operand is NaN and the other −Inf (math.Min gives −Inf, min gives
// NaN), and a round carrying such a pair must get the solver's λ.
func (p *refLambdaProbe) split(remCache, lambda float64) {
	for gi := range p.groups {
		p.groups[gi].rate = 0
	}
	for i, sj := range p.jobs {
		t := min(lambda*sj.perfEqual, float64(sj.view.Profile.IdealThroughput))
		p.targets[i] = t
		p.groups[p.groupOf[i]].rate += t
	}
	// The scan score has the exact operation order of the historical
	// per-comparison form rate/max(size,1)·(1+0.5·eff); scores are
	// total-ordered (ties fall to the unique group key), so the sorted
	// permutation is the same whichever sort visits them.
	for gi := range p.groups {
		g := &p.groups[gi]
		p.scores[gi] = g.rate / g.maxSize * g.hyst
	}
	order, scores, keys := p.order, p.scores, p.keys
	// order persists across λ probes. The comparator (score desc, key
	// asc) is a strict total order — score ties fall to the unique
	// group key — so the sorted permutation is unique: if the previous
	// probe's order is still sorted under the current scores (the
	// common case once the bisection narrows), it already IS the
	// permutation any sort would produce, and the O(n log n) re-sort is
	// skipped. Otherwise the sort's output is that same unique
	// permutation no matter what input order it starts from.
	sorted := true
	for k := 1; k < len(order); k++ {
		ga, gb := order[k], order[k-1]
		ea, eb := scores[ga], scores[gb]
		if eb < ea || (ea == eb && keys[ga] < keys[gb]) {
			sorted = false
			break
		}
	}
	if !sorted {
		sort.Slice(order, func(a, b int) bool {
			ga, gb := order[a], order[b]
			ea, eb := scores[ga], scores[gb]
			if ea != eb {
				return ea > eb
			}
			return keys[ga] < keys[gb]
		})
	}
	cacheLeft := remCache
	for _, gi := range order {
		g := &p.groups[gi]
		give := min(g.size, cacheLeft)
		g.cache = give
		cacheLeft -= give
	}
}

// requiredIO sums the bandwidth the split at the current targets needs:
// t_j · (1 - c/d) per job, the steady-state demand at the planned cache
// (Eq. 2). Warm-up transients are the bandwidth program's concern
// (Bandwidth sizes actual grants effective-aware); the cache
// program plans the steady state, as the paper's formulation does.
// Groups are scanned in first-encounter order so the float accumulation
// order — and with it the feasibility verdict at the bisection
// boundary — is deterministic.
func (p *refLambdaProbe) requiredIO() float64 {
	var total float64
	for gi := range p.groups {
		g := &p.groups[gi]
		miss := 1 - g.cache/g.maxSize
		if miss < 0 {
			miss = 0
		}
		for _, i := range g.members {
			total += p.targets[i] * miss
		}
	}
	return total
}

// feasible reports whether targets at lambda fit both budgets.
func (p *refLambdaProbe) feasible(remCache, remIO, lambda float64) bool {
	p.split(remCache, lambda)
	return p.requiredIO() <= remIO*(1+1e-9)+1e-6
}

// allocate computes the cheapest allocation giving every job its
// target throughput at lambda. The returned slice is scratch, valid
// until the probe's next allocate call.
func (p *refLambdaProbe) allocate(remCache, remIO, lambda float64) []StorageAlloc {
	p.split(remCache, lambda)
	for gi := range p.groups {
		g := &p.groups[gi]
		miss := 1 - g.cache/g.maxSize
		if miss < 0 {
			miss = 0
		}
		for _, i := range g.members {
			p.allocs[i] = StorageAlloc{
				Cache:    unit.Bytes(g.cache / float64(len(g.members))), // provisional split; merged later
				RemoteIO: unit.Bandwidth(p.targets[i] * miss),
				Perf:     unit.Bandwidth(p.targets[i]),
			}
		}
	}
	return p.allocs
}

// maxFeasibleLambda bisects on the normalized rate: 60 halvings of
// [0, hi], each decided by one feasibility probe.
func (p *refLambdaProbe) maxFeasibleLambda(remCache, remIO float64) float64 {
	// Upper bound: the largest f*/perfEqual ratio.
	hi := 0.0
	for _, sj := range p.jobs {
		r := float64(sj.view.Profile.IdealThroughput) / sj.perfEqual
		if r > hi {
			hi = r
		}
	}
	if hi <= 0 {
		return 0
	}
	lo := 0.0
	if p.feasible(remCache, remIO, hi) {
		return hi
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if p.feasible(remCache, remIO, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// refSpendSlack distributes leftover cache (by cache efficiency, Eq. 5)
// and leftover bandwidth (to unsaturated jobs) so no resource idles
// while any job could use it. This cannot reduce any job's allocation,
// so the max-min optimum is preserved.
func refSpendSlack(remCache, remIO float64, jobs []core.JobView, out map[string]StorageAlloc) {
	if remCache < 0 {
		remCache = 0
	}
	if remIO < 0 {
		remIO = 0
	}
	// Cache by efficiency: group jobs by dataset; efficiency of a
	// dataset is Σ f*/d of its jobs.
	type dgroup struct {
		key  string
		size float64
		eff  float64
		have float64
		jobs []string
	}
	groups := make(map[string]*dgroup)
	for _, j := range jobs {
		g, ok := groups[j.DatasetKey]
		if !ok {
			g = &dgroup{key: j.DatasetKey, size: float64(j.DatasetSize)}
			groups[j.DatasetKey] = g
		}
		g.eff += float64(j.Profile.IdealThroughput) / math.Max(float64(j.DatasetSize), 1)
		g.have += float64(out[j.ID].Cache)
		g.jobs = append(g.jobs, j.ID)
	}
	ordered := make([]*dgroup, 0, len(groups))
	for _, g := range groups {
		ordered = append(ordered, g)
	}
	sort.Slice(ordered, func(a, b int) bool {
		if ordered[a].eff != ordered[b].eff {
			return ordered[a].eff > ordered[b].eff
		}
		return ordered[a].key < ordered[b].key
	})
	for _, g := range ordered {
		if remCache <= 0 {
			break
		}
		room := g.size - g.have
		if room <= 0 {
			continue
		}
		give := math.Min(room, remCache)
		remCache -= give
		// Spread the extra across the group's jobs (merged per dataset
		// afterwards anyway).
		per := give / float64(len(g.jobs))
		for _, id := range g.jobs {
			a := out[id]
			a.Cache += unit.Bytes(per)
			out[id] = a
		}
	}
	// Bandwidth to unsaturated jobs, equal split refined per round.
	for round := 0; round < 4 && remIO > 1e-6; round++ {
		var unsat []core.JobView
		for _, j := range jobs {
			a := out[j.ID]
			if float64(a.Perf) < float64(j.Profile.IdealThroughput)-1e-9 {
				unsat = append(unsat, j)
			}
		}
		if len(unsat) == 0 {
			break
		}
		per := remIO / float64(len(unsat))
		for _, j := range unsat {
			a := out[j.ID]
			// Extra bandwidth raises perf by Eq. 3 up to f*; cap the
			// grant at what reaches f*.
			miss := 1 - math.Min(float64(a.Cache)/math.Max(float64(j.DatasetSize), 1), 1)
			need := (float64(j.Profile.IdealThroughput) - float64(a.Perf)) * miss
			give := math.Min(per, need)
			if give <= 0 {
				continue
			}
			a.RemoteIO += unit.Bandwidth(give)
			a.Perf = j.Profile.Perf(estimator.Resources{Cache: a.Cache, RemoteIO: a.RemoteIO})
			out[j.ID] = a
			remIO -= give
		}
	}
}

// refMergeSharedCache recomputes every job's Perf against the full merged
// cache of its dataset (jobs sharing a dataset each benefit from the
// whole dataset allocation, while the caller charges it once).
func refMergeSharedCache(jobs []core.JobView, out map[string]StorageAlloc) {
	totals := make(map[string]unit.Bytes)
	for _, j := range jobs {
		totals[j.DatasetKey] += out[j.ID].Cache
	}
	for _, j := range jobs {
		a := out[j.ID]
		merged := totals[j.DatasetKey]
		if merged > j.DatasetSize {
			merged = j.DatasetSize
		}
		a.Perf = j.Profile.Perf(estimator.Resources{Cache: merged, RemoteIO: a.RemoteIO})
		out[j.ID] = a
	}
}

// Bandwidth solves the bandwidth-only max-min program with cache
// quotas fixed: maximize min_j min(f*, b_j/(1-q_j/d_j)) / perfEqual_j
// subject to Σ b_j <= total, where perfEqual is SiloDPerf under the
// equal storage division among the n running jobs. Grants are sized
// against the *effective* cache (warming datasets need their full
// current demand to hit the target now), which also satisfies the
// planned-quota objective since q >= effective. The required bandwidth
// is monotone in the normalized rate λ, so bisection is exact; leftover
// bandwidth (from jobs capped at f*) should be spent by the caller.
func refBandwidth(cl core.Cluster, total unit.Bandwidth, running []core.JobView,
	quota map[string]unit.Bytes) map[string]unit.Bandwidth {
	out := make(map[string]unit.Bandwidth, len(running))
	if len(running) == 0 {
		return out
	}
	n := float64(len(running))
	equal := estimator.Resources{
		Cache:    unit.Bytes(float64(cl.Cache) / n),
		RemoteIO: unit.Bandwidth(float64(cl.RemoteIO) / n),
	}
	pe := make([]float64, len(running))
	missEff := make([]float64, len(running))
	hi := 0.0
	for i, j := range running {
		p := float64(j.Profile.Perf(equal))
		if p <= 0 {
			p = float64(j.Profile.IdealThroughput)
		}
		pe[i] = p
		covered := float64(quota[j.DatasetKey])
		if e := float64(j.EffectiveCached); e < covered {
			covered = e
		}
		d := math.Max(float64(j.DatasetSize), 1)
		m := 1 - covered/d
		if m < 0 {
			m = 0
		}
		missEff[i] = m
		if r := float64(j.Profile.IdealThroughput) / p; r > hi {
			hi = r
		}
	}
	needed := func(lambda float64) float64 {
		var sum float64
		for i, j := range running {
			t := math.Min(lambda*pe[i], float64(j.Profile.IdealThroughput))
			sum += t * missEff[i]
		}
		return sum
	}
	budget := float64(total)
	lo := 0.0
	if needed(hi) <= budget {
		lo = hi
	} else {
		h := hi
		for k := 0; k < 60; k++ {
			mid := (lo + h) / 2
			if needed(mid) <= budget {
				lo = mid
			} else {
				h = mid
			}
		}
	}
	for i, j := range running {
		t := math.Min(lo*pe[i], float64(j.Profile.IdealThroughput))
		out[j.ID] = unit.Bandwidth(t * missEff[i])
	}
	return out
}

// refDatasetQuotas folds per-job cache allocations into per-dataset quotas
// (charging shared datasets once, capped at dataset size).
func refDatasetQuotas(jobs []core.JobView, allocs map[string]StorageAlloc) map[string]unit.Bytes {
	quota := make(map[string]unit.Bytes)
	size := make(map[string]unit.Bytes)
	for _, j := range jobs {
		quota[j.DatasetKey] += allocs[j.ID].Cache
		size[j.DatasetKey] = j.DatasetSize
	}
	for k, q := range quota {
		if q > size[k] {
			q = size[k]
		}
		if q < 0 {
			// Guard against float round-off from the slack pass; a
			// negative quota would be rejected by Assignment.Validate.
			q = 0
		}
		quota[k] = q
	}
	return quota
}

// refTopUpRemoteIO adds extra bandwidth on top of existing grants: first
// warming jobs in priority order up to their instantaneous demand, then
// a water-fill over remaining unmet demands.
func refTopUpRemoteIO(extra unit.Bandwidth, running []core.JobView, a *refAssignment,
	less func(x, y core.JobView) bool) {
	remaining := float64(extra)
	ordered := append([]core.JobView(nil), running...)
	sort.Slice(ordered, func(i, j int) bool { return less(ordered[i], ordered[j]) })
	unmet := make(map[string]float64)
	for _, j := range ordered {
		gap := refInstantDemand(j, a) - float64(a.RemoteIO[j.ID])
		if gap <= 1e-9 {
			continue
		}
		if a.CacheQuota[j.DatasetKey] > j.EffectiveCached {
			give := math.Min(gap, remaining)
			a.RemoteIO[j.ID] += unit.Bandwidth(give)
			remaining -= give
			gap -= give
		}
		if gap > 1e-9 {
			unmet[j.ID] = gap
		}
	}
	if remaining <= 1e-9 || len(unmet) == 0 {
		return
	}
	type rec struct {
		id   string
		want float64
	}
	recs := make([]rec, 0, len(unmet))
	for id, w := range unmet {
		recs = append(recs, rec{id, w})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].want != recs[j].want {
			return recs[i].want < recs[j].want
		}
		return recs[i].id < recs[j].id
	})
	left := len(recs)
	for _, r := range recs {
		level := remaining / float64(left)
		give := math.Min(r.want, level)
		a.RemoteIO[r.id] += unit.Bandwidth(give)
		remaining -= give
		left--
	}
}

// refMaxMinEfficiencyRank orders datasets by warm-up value (cache
// efficiency with warm-data hysteresis), shared with the greedy
// allocator's investment ordering.
func refMaxMinEfficiencyRank(jobs []core.JobView) map[string]int {
	type grp struct {
		key string
		eff float64
		hot float64
	}
	groups := make(map[string]*grp)
	var keys []string
	for _, j := range jobs {
		g, ok := groups[j.DatasetKey]
		if !ok {
			g = &grp{key: j.DatasetKey}
			groups[j.DatasetKey] = g
			keys = append(keys, j.DatasetKey)
		}
		d := float64(j.DatasetSize)
		if d <= 0 {
			d = 1
		}
		g.eff += float64(j.Profile.IdealThroughput) / d
		if f := float64(j.CachedBytes) / d; f > g.hot {
			g.hot = f
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		ga, gb := groups[keys[a]], groups[keys[b]]
		ea := ga.eff * (1 + 0.5*ga.hot)
		eb := gb.eff * (1 + 0.5*gb.hot)
		if ea != eb {
			return ea > eb
		}
		return keys[a] < keys[b]
	})
	rank := make(map[string]int, len(keys))
	for i, k := range keys {
		rank[k] = i
	}
	return rank
}

// refGavelAssign is Gavel.Assign for the deficit-ordered objectives
// with Enhanced set, as the map-based code computed it: admission by a
// per-comparison sort of the views, then the enhanced storage tail.
func refGavelAssign(obj GavelObjective, c core.Cluster, now unit.Time, jobs []core.JobView) refAssignment {
	a := newRefAssignment()
	key := func(j core.JobView) float64 { return (&Gavel{Objective: obj}).orderKey(now, j) }
	ordered := append([]core.JobView(nil), jobs...)
	sort.Slice(ordered, func(x, y int) bool {
		dx, dy := key(ordered[x]), key(ordered[y])
		if dx != dy {
			return dx < dy
		}
		return ordered[x].ID < ordered[y].ID
	})
	refAdmitGangs(a.GPUs, c.GPUs, ordered)
	running := refAdmittedViewsInto(nil, jobs, a.GPUs)
	allocs := refStorage(c.Cache, c.RemoteIO, jobs)
	a.CacheQuota = refDatasetQuotas(jobs, allocs)
	grants := refBandwidth(c, c.RemoteIO, running, a.CacheQuota)
	leftover := float64(c.RemoteIO)
	for _, j := range running {
		bw := grants[j.ID]
		a.RemoteIO[j.ID] = bw
		leftover -= float64(bw)
	}
	if leftover > 0 {
		rank := refMaxMinEfficiencyRank(jobs)
		refTopUpRemoteIO(unit.Bandwidth(leftover), running, &a, func(x, y core.JobView) bool {
			if rank[x.DatasetKey] != rank[y.DatasetKey] {
				return rank[x.DatasetKey] < rank[y.DatasetKey]
			}
			return x.ID < y.ID
		})
	}
	return a
}
