// Package policy implements the scheduling policies SiloD evaluates
// (§5, §7): FIFO, multi-resource SJF (Tetris/Tiresias style, Eq. 6/7)
// and Gavel max-min fairness (Eq. 8/9) — each in a vanilla,
// storage-oblivious form and a SiloD-enhanced form that jointly
// allocates GPUs, cache and remote IO — plus the storage allocators of
// the baseline cache systems (Alluxio/LRU, CoorDL, Quiver) and SiloD's
// greedy policy (Algorithm 2).
package policy

import (
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/remoteio"
	"repro/internal/unit"
)

// StorageAlloc is the result of the max-min storage program for one job.
type StorageAlloc struct {
	Cache    unit.Bytes     // allocated to the job's dataset (shared datasets merged by caller)
	RemoteIO unit.Bandwidth // allocated to the job
	Perf     unit.Bandwidth // resulting SiloDPerf
}

// MaxMinSolver solves the max-min storage and bandwidth programs. Every
// call solves from scratch (Gavel states max-min as a program re-solved
// at each allocation), so a long-lived solver and a fresh one return
// the same bits. What a solver keeps between calls is workspace only:
// slices addressed by job index (the position in the call's views) and
// by dataset index (first-encounter order of DatasetKey over those
// views), grown to the largest call seen and reset at the start of
// every call, so a warm solver allocates nothing. The maps Storage and
// Bandwidth return are solver-owned too: cleared and refilled, valid
// until the solver's next call. The zero value is ready to use; a
// solver must not be shared between goroutines.
type MaxMinSolver struct {
	// Cold has no effect: every solve is from scratch. The field stays
	// only because bench/probes.go (frozen) spells it; it goes in the
	// next [benchmark] PR.
	Cold bool

	// By job index, rebuilt by index() on every call.
	jobs []core.JobView // the call's views; read, never written
	job  []mmJob
	res  []StorageAlloc // the storage program's result
	// By dataset index, rebuilt by index() on every call.
	dsIndex map[string]int
	ds      []mmDataset
	dsOrder []int // scratch permutation for sortDatasets

	// One filling round: active (and next) hold job indices; the probe's
	// state is by round position k, its groups by group index (first
	// encounter over the round's jobs), members CSR-style in round order.
	active, next []int
	round        []roundJob
	targets      []float64
	alloc        []StorageAlloc
	groups       []probeGroup
	keys         []string  // group key, by group index
	scores       []float64 // scan score at the current λ, by group index
	members      []int
	order        []int // group indices in scan order; persists across a round's probes
	unsat        []int

	// The bandwidth program and Gavel's top-up, by running position k:
	// run[k] is a job index, runQuota[k] its dataset's cache quota.
	run      []int
	runQuota []float64
	bw       []bwJob
	grant    []float64
	want     []float64
	runIDs   []string
	runOrder []int
	div      remoteio.Divider

	storageOut map[string]StorageAlloc
}

// mmJob is what the storage program reads of one job, computed once per
// call.
type mmJob struct {
	pe    float64 // SiloDPerf under the equal division R_equal (Eq. 8's denominator), bytes/s
	fstar float64 // f*, bytes/s
	size  float64 // the job's DatasetSize
	frac  float64 // CachedBytes / max(size, 1): the warm-data hysteresis input
	ds    int     // dataset index
}

// mmDataset is one dataset of the call.
type mmDataset struct {
	key       string
	firstSize float64    // DatasetSize of its first job: the room spendSlack fills
	lastSize  unit.Bytes // DatasetSize of its last job: the quota clamp
	n         int        // number of jobs
	group     int        // this filling round's group index, -1 if no active member
	score     float64    // sort key of sortDatasets (see its callers)
	have      float64    // spendSlack: cache already granted
	per       float64    // spendSlack: extra cache for each of its jobs
	hot       float64    // effRank: max cached fraction
	total     unit.Bytes // merged cache of its jobs
	quota     unit.Bytes // total clamped to [0, lastSize]
	rank      int        // effRank: position in warm-up value order
}

// roundJob is one active job of a filling round.
type roundJob struct {
	pe, fstar float64
	group     int
}

// probeGroup is one dataset group of a filling round. Size, eff and the
// member range are λ-invariant; rate and cache are recomputed per probe.
type probeGroup struct {
	size float64 // dataset size d (its first active member's)
	eff  float64 // max effective-cached fraction among active members
	// maxSize and hyst are the λ-invariant factors of the scan score
	// rate/max(size,1)·(1+0.5·eff).
	maxSize float64 // max(size, 1)
	hyst    float64 // 1 + 0.5·eff
	lo, hi  int     // members: MaxMinSolver.members[lo:hi]
	rate    float64 // Σ targets of the members (per probe)
	cache   float64 // cache granted to the group (per probe)
}

// bwJob is one running job of the bandwidth program.
type bwJob struct {
	pe, fstar float64
	miss      float64 // 1 - min(quota, effective)/max(d, 1), clamped at 0
}

// resize returns a length-n slice backed by *buf, reallocating only when
// the capacity is insufficient, and then to at least twice the old
// capacity, so a buffer growing one element at a time reallocates
// O(log n) times. Element contents are unspecified, so callers
// overwrite every element before reading it.
//
// silod:pure
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n, max(n, 2*cap(*buf)))
	}
	*buf = (*buf)[:n]
	return *buf
}

// resetMap returns *m cleared, allocating it on first use.
//
// silod:pure
func resetMap[K comparable, V any](m *map[K]V) map[K]V {
	if *m == nil {
		*m = make(map[K]V)
	}
	clear(*m)
	return *m
}

// index resets the per-call workspace for jobs: job records, dataset
// records and a zeroed result per job.
//
// silod:pure
func (s *MaxMinSolver) index(jobs []core.JobView) {
	s.jobs = jobs
	job := resize(&s.job, len(jobs))
	clear(resize(&s.res, len(jobs)))
	dsIndex := resetMap(&s.dsIndex)
	s.ds = s.ds[:0]
	for i := range jobs {
		j := &jobs[i]
		d, ok := dsIndex[j.DatasetKey]
		if !ok {
			d = len(s.ds)
			dsIndex[j.DatasetKey] = d
			s.ds = append(s.ds, mmDataset{key: j.DatasetKey, firstSize: float64(j.DatasetSize)})
		}
		s.ds[d].n++
		s.ds[d].lastSize = j.DatasetSize
		size := float64(j.DatasetSize)
		job[i] = mmJob{
			fstar: float64(j.Profile.IdealThroughput),
			size:  size,
			frac:  float64(j.CachedBytes) / max(size, 1),
			ds:    d,
		}
	}
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
// The result is a deterministic function of the arguments (no clock, no
// RNG, no map-order dependence). The returned map is the solver's own,
// valid until its next call.
//
// silod:pure
func (s *MaxMinSolver) Storage(totalCache unit.Bytes, totalIO unit.Bandwidth, jobs []core.JobView) map[string]StorageAlloc {
	s.storage(totalCache, totalIO, jobs)
	out := resetMap(&s.storageOut)
	for i := range jobs {
		out[jobs[i].ID] = s.res[i]
	}
	return out
}

// storage is Storage into s.res, by job index.
//
// silod:pure
func (s *MaxMinSolver) storage(totalCache unit.Bytes, totalIO unit.Bandwidth, jobs []core.JobView) {
	s.index(jobs)
	if len(jobs) == 0 {
		return
	}
	// Equal division: every job gets cache/n on its dataset and io/n.
	n := float64(len(jobs))
	equal := estimator.Resources{
		Cache:    unit.Bytes(float64(totalCache) / n),
		RemoteIO: unit.Bandwidth(float64(totalIO) / n),
	}
	// active and next swap roles between rounds, so both get room for
	// every job up front.
	active := resize(&s.active, len(jobs))[:0]
	next := resize(&s.next, len(jobs))[:0]
	for i := range jobs {
		pe := float64(jobs[i].Profile.Perf(equal))
		if pe <= 0 {
			// A job that can make no progress even under equal share
			// (e.g. zero bandwidth and no cache): normalize by f* so the
			// program remains well-defined.
			pe = s.job[i].fstar
		}
		s.job[i].pe = pe
		active = append(active, i)
	}

	remCache := float64(totalCache)
	remIO := float64(totalIO)
	// Progressive filling: at most len(jobs) rounds.
	for len(active) > 0 {
		s.groupRound(active)
		lambda := s.maxFeasibleLambda(remCache, remIO)
		s.allocate(remCache, remIO, lambda)
		// Jobs capped at f* under this lambda are saturated: freeze them.
		next = next[:0]
		frozeAny := false
		for k, i := range active {
			fstar := s.job[i].fstar
			if min(lambda*s.job[i].pe, fstar) >= fstar-1e-9 {
				s.res[i] = s.alloc[k]
				remCache -= float64(s.alloc[k].Cache)
				remIO -= float64(s.alloc[k].RemoteIO)
				frozeAny = true
			} else {
				next = append(next, i)
			}
		}
		if !frozeAny {
			// No job saturated: the bottleneck binds all remaining jobs;
			// record their allocations and stop.
			for k, i := range active {
				s.res[i] = s.alloc[k]
				remCache -= float64(s.alloc[k].Cache)
				remIO -= float64(s.alloc[k].RemoteIO)
			}
			break
		}
		active, next = next, active
	}
	s.active, s.next = active, next
	s.spendSlack(remCache, remIO)
	s.mergeSharedCache()
}

// groupRound builds one filling round's probe state from the job
// indices in active: the per-position rates' inputs, and the dataset
// groups in first-encounter order over the active jobs (requiredIO's
// sum order follows it), each with its members in round order. The
// scan order starts as the identity.
//
// silod:pure
func (s *MaxMinSolver) groupRound(active []int) {
	round := resize(&s.round, len(active))
	resize(&s.targets, len(active))
	resize(&s.alloc, len(active))
	for d := range s.ds {
		s.ds[d].group = -1
	}
	s.groups, s.keys = s.groups[:0], s.keys[:0]
	for k, i := range active {
		jb := &s.job[i]
		ds := &s.ds[jb.ds]
		g := ds.group
		if g < 0 {
			g = len(s.groups)
			ds.group = g
			s.groups = append(s.groups, probeGroup{size: jb.size})
			s.keys = append(s.keys, ds.key)
		}
		gr := &s.groups[g]
		if jb.frac > gr.eff {
			gr.eff = jb.frac
		}
		gr.hi++ // member count until the offsets below
		round[k] = roundJob{pe: jb.pe, fstar: jb.fstar, group: g}
	}
	off := 0
	for g := range s.groups {
		gr := &s.groups[g]
		gr.lo, gr.hi, off = off, off, off+gr.hi
		gr.maxSize = max(gr.size, 1)
		gr.hyst = 1 + 0.5*gr.eff
	}
	members := resize(&s.members, len(active))
	for k := range round {
		gr := &s.groups[round[k].group]
		members[gr.hi] = k
		gr.hi++
	}
	order := resize(&s.order, len(s.groups))
	for g := range order {
		order[g] = g
	}
	resize(&s.scores, len(s.groups))
}

// byScore compares two entries by score, descending if desc, ties to
// their unique keys: a strict total order, so any sort reaches one
// permutation. Nothing sorts before a NaN score, nor a NaN before
// anything;
// slices.SortFunc is sort.Slice's pdqsort step for step, so even then
// the result is the one the same comparisons always gave.
//
// silod:pure
func byScore(ea, eb float64, ka, kb string, desc bool) int {
	switch {
	case ea == eb:
		return strings.Compare(ka, kb)
	case desc && ea > eb, !desc && ea < eb:
		return -1
	}
	return 1
}

// scanCmp orders groups by scan score, descending, ties to the unique
// group key: a strict total order, so the sorted permutation is unique.
//
// silod:pure
func (s *MaxMinSolver) scanCmp(ga, gb int) int {
	return byScore(s.scores[ga], s.scores[gb], s.keys[ga], s.keys[gb], true)
}

// split computes every job's target throughput min(lambda·perfEqual,
// f*) and the greedy cache division at that lambda: cache goes to
// dataset groups in decreasing order of bandwidth-saved-per-byte
// (g.rate/g.size), with the warm-data hysteresis used throughout
// SiloD's allocators so already-effective datasets win near-ties and
// quotas stay stable as the job set churns.
//
// Runs ~60 times per bisection on the round's scratch.
//
// silod:pure
func (s *MaxMinSolver) split(remCache, lambda float64) {
	groups := s.groups
	for g := range groups {
		groups[g].rate = 0
	}
	for k, rj := range s.round {
		t := min(lambda*rj.pe, rj.fstar)
		s.targets[k] = t
		groups[rj.group].rate += t
	}
	for g := range groups {
		gr := &groups[g]
		s.scores[g] = gr.rate / gr.maxSize * gr.hyst
	}
	// order persists across λ probes. scanCmp is a strict total order,
	// so the sorted permutation is unique: if the previous probe's order
	// is still sorted under the current scores (the common case once the
	// bisection narrows), it already IS the permutation any sort would
	// produce, and the O(n log n) re-sort is skipped.
	order := s.order
	for k := 1; k < len(order); k++ {
		if s.scanCmp(order[k], order[k-1]) < 0 {
			slices.SortFunc(order, s.scanCmp)
			break
		}
	}
	cacheLeft := remCache
	for _, g := range order {
		gr := &groups[g]
		give := min(gr.size, cacheLeft)
		gr.cache = give
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
//
// silod:pure
func (s *MaxMinSolver) requiredIO() float64 {
	var total float64
	for g := range s.groups {
		gr := &s.groups[g]
		miss := 1 - gr.cache/gr.maxSize
		if miss < 0 {
			miss = 0
		}
		for _, k := range s.members[gr.lo:gr.hi] {
			total += s.targets[k] * miss
		}
	}
	return total
}

// feasible reports whether targets at lambda fit both budgets.
//
// silod:pure
func (s *MaxMinSolver) feasible(remCache, remIO, lambda float64) bool {
	s.split(remCache, lambda)
	return s.requiredIO() <= remIO*(1+1e-9)+1e-6
}

// allocate fills s.alloc, by round position, with the cheapest
// allocation giving every active job its target throughput at lambda.
//
// silod:pure
func (s *MaxMinSolver) allocate(remCache, remIO, lambda float64) {
	s.split(remCache, lambda)
	for g := range s.groups {
		gr := &s.groups[g]
		miss := 1 - gr.cache/gr.maxSize
		if miss < 0 {
			miss = 0
		}
		for _, k := range s.members[gr.lo:gr.hi] {
			s.alloc[k] = StorageAlloc{
				Cache:    unit.Bytes(gr.cache / float64(gr.hi-gr.lo)), // provisional split; merged later
				RemoteIO: unit.Bandwidth(s.targets[k] * miss),
				Perf:     unit.Bandwidth(s.targets[k]),
			}
		}
	}
}

// maxFeasibleLambda bisects on the normalized rate: 60 halvings of
// [0, hi], each decided by one feasibility probe.
//
// silod:pure
func (s *MaxMinSolver) maxFeasibleLambda(remCache, remIO float64) float64 {
	// Upper bound: the largest f*/perfEqual ratio.
	hi := 0.0
	for _, rj := range s.round {
		if r := rj.fstar / rj.pe; r > hi {
			hi = r
		}
	}
	if hi <= 0 {
		return 0
	}
	lo := 0.0
	if s.feasible(remCache, remIO, hi) {
		return hi
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if s.feasible(remCache, remIO, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// dsCmp orders datasets by score, descending, ties to the unique key.
//
// silod:pure
func (s *MaxMinSolver) dsCmp(a, b int) int {
	return byScore(s.ds[a].score, s.ds[b].score, s.ds[a].key, s.ds[b].key, true)
}

// sortDatasets returns every dataset index ordered by dsCmp.
//
// silod:pure
func (s *MaxMinSolver) sortDatasets() []int {
	order := resize(&s.dsOrder, len(s.ds))
	for d := range order {
		order[d] = d
	}
	slices.SortFunc(order, s.dsCmp)
	return order
}

// spendSlack distributes leftover cache (by cache efficiency, Eq. 5)
// and leftover bandwidth (to unsaturated jobs) so no resource idles
// while any job could use it. This cannot reduce any job's allocation,
// so the max-min optimum is preserved.
//
// silod:pure
func (s *MaxMinSolver) spendSlack(remCache, remIO float64) {
	if remIO < 0 {
		remIO = 0
	}
	// Cache by efficiency: the efficiency of a dataset is Σ f*/d of its
	// jobs. With no cache left no order can matter, so none is computed
	// (a NaN remainder still takes the loop, as it always did).
	if !(remCache <= 0) {
		for d := range s.ds {
			s.ds[d].score, s.ds[d].have, s.ds[d].per = 0, 0, 0
		}
		for i := range s.job {
			jb := &s.job[i]
			ds := &s.ds[jb.ds]
			ds.score += jb.fstar / max(jb.size, 1)
			ds.have += float64(s.res[i].Cache)
		}
		for _, d := range s.sortDatasets() {
			if remCache <= 0 {
				break
			}
			ds := &s.ds[d]
			room := ds.firstSize - ds.have
			if room <= 0 {
				continue
			}
			give := min(room, remCache)
			remCache -= give
			// Spread the extra across the dataset's jobs (merged per
			// dataset afterwards anyway).
			ds.per = give / float64(ds.n)
		}
		for i := range s.res {
			if per := s.ds[s.job[i].ds].per; per != 0 {
				s.res[i].Cache += unit.Bytes(per)
			}
		}
	}
	// Bandwidth to unsaturated jobs, equal split refined per round.
	for round := 0; round < 4 && remIO > 1e-6; round++ {
		unsat := s.unsat[:0]
		for i := range s.res {
			if float64(s.res[i].Perf) < s.job[i].fstar-1e-9 {
				unsat = append(unsat, i)
			}
		}
		s.unsat = unsat
		if len(unsat) == 0 {
			break
		}
		per := remIO / float64(len(unsat))
		for _, i := range unsat {
			a := &s.res[i]
			// Extra bandwidth raises perf by Eq. 3 up to f*; cap the
			// grant at what reaches f*.
			miss := 1 - min(float64(a.Cache)/max(s.job[i].size, 1), 1)
			need := (s.job[i].fstar - float64(a.Perf)) * miss
			give := min(per, need)
			if give <= 0 {
				continue
			}
			a.RemoteIO += unit.Bandwidth(give)
			a.Perf = s.jobs[i].Profile.Perf(estimator.Resources{Cache: a.Cache, RemoteIO: a.RemoteIO})
			remIO -= give
		}
	}
}

// mergeSharedCache recomputes every job's Perf against the full merged
// cache of its dataset (jobs sharing a dataset each benefit from the
// whole dataset allocation, while the caller charges it once), and
// folds the merged cache into each dataset's quota: charged once,
// capped at its size.
//
// silod:pure
func (s *MaxMinSolver) mergeSharedCache() {
	for d := range s.ds {
		s.ds[d].total = 0
	}
	for i := range s.res {
		s.ds[s.job[i].ds].total += s.res[i].Cache
	}
	for i := range s.res {
		a := &s.res[i]
		merged := s.ds[s.job[i].ds].total
		if size := s.jobs[i].DatasetSize; merged > size {
			merged = size
		}
		a.Perf = s.jobs[i].Profile.Perf(estimator.Resources{Cache: merged, RemoteIO: a.RemoteIO})
	}
	for d := range s.ds {
		ds := &s.ds[d]
		q := ds.total
		if q > ds.lastSize {
			q = ds.lastSize
		}
		if q < 0 {
			// Guard against float round-off from the slack pass; a
			// negative quota would be rejected by Assignment.Validate.
			q = 0
		}
		ds.quota = q
	}
}

// bandwidth solves the bandwidth-only max-min program with cache
// quotas fixed: maximize min_j min(f*, b_j/(1-q_j/d_j)) / perfEqual_j
// subject to Σ b_j <= total, where perfEqual is SiloDPerf under the
// equal storage division among the n running jobs. Grants are sized
// against the *effective* cache (warming datasets need their full
// current demand to hit the target now), which also satisfies the
// planned-quota objective since q >= effective. The required bandwidth
// is monotone in the normalized rate λ, so bisection is exact; leftover
// bandwidth (from jobs capped at f*) should be spent by the caller.
//
// It runs over the running jobs jobs[s.run[k]], whose dataset quotas
// are s.runQuota[k], and fills s.grant by running position.
//
// silod:pure
func (s *MaxMinSolver) bandwidth(cl core.Cluster, total unit.Bandwidth, jobs []core.JobView) {
	bw := resize(&s.bw, len(s.run))
	grant := resize(&s.grant, len(s.run))
	if len(s.run) == 0 {
		return
	}
	n := float64(len(s.run))
	equal := estimator.Resources{
		Cache:    unit.Bytes(float64(cl.Cache) / n),
		RemoteIO: unit.Bandwidth(float64(cl.RemoteIO) / n),
	}
	hi := 0.0
	for k, i := range s.run {
		j := &jobs[i]
		fstar := float64(j.Profile.IdealThroughput)
		p := float64(j.Profile.Perf(equal))
		if p <= 0 {
			p = fstar
		}
		covered := s.runQuota[k]
		if e := float64(j.EffectiveCached); e < covered {
			covered = e
		}
		m := 1 - covered/max(float64(j.DatasetSize), 1)
		if m < 0 {
			m = 0
		}
		bw[k] = bwJob{pe: p, fstar: fstar, miss: m}
		if r := fstar / p; r > hi {
			hi = r
		}
	}
	budget := float64(total)
	lo := 0.0
	if s.needed(hi) <= budget {
		lo = hi
	} else {
		h := hi
		for k := 0; k < 60; k++ {
			mid := (lo + h) / 2
			if s.needed(mid) <= budget {
				lo = mid
			} else {
				h = mid
			}
		}
	}
	for k := range bw {
		grant[k] = min(lo*bw[k].pe, bw[k].fstar) * bw[k].miss
	}
}

// needed is the bandwidth the running jobs need at normalized rate
// lambda.
//
// silod:pure
func (s *MaxMinSolver) needed(lambda float64) float64 {
	var sum float64
	for _, b := range s.bw {
		sum += min(lambda*b.pe, b.fstar) * b.miss
	}
	return sum
}
