// Package policy implements the scheduling policies SiloD evaluates
// (§5, §7): FIFO, multi-resource SJF (Tetris/Tiresias style, Eq. 6/7)
// and Gavel max-min fairness (Eq. 8/9) — each in a vanilla,
// storage-oblivious form and a SiloD-enhanced form that jointly
// allocates GPUs, cache and remote IO — plus the storage allocators of
// the baseline cache systems (Alluxio/LRU, CoorDL, Quiver) and SiloD's
// greedy policy (Algorithm 2).
package policy

import (
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/keysort"
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

	// One filling round: active (and next) hold job indices, alloc is by
	// round position k, groups by group index (first encounter over the
	// round's jobs). members holds the round's jobs grouped CSR-style,
	// each group's in round order; memberPos[m] is members[m]'s k.
	active, next []int
	alloc        []StorageAlloc
	groups       []probeGroup
	keys         []string // group key, by group index
	members      []rateJob
	memberPos    []int
	scan         []scored // groups in scan order with their scores; persists across a round's probes
	sorter       keysort.Sorter[scored]
	sLo, sHi     []float64 // by group index: the scores at the bisection's feasible and infeasible ends
	unsat        []int

	// Work counters over the solver's life: feasibility verdicts the
	// bisections took, full splits run (allocate's included), and
	// demand sums evaluated.
	probes, splits, evals int

	// The bandwidth program and Gavel's top-up, by running position k:
	// run[k] is a job index, runQuota[k] its dataset's cache quota.
	run      []int
	runQuota []float64
	bw       []rateJob
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

// probeGroup is one dataset group of a filling round. Size, eff and the
// member range are λ-invariant; rate and cache are recomputed per split.
type probeGroup struct {
	size float64 // dataset size d (its first active member's)
	eff  float64 // max effective-cached fraction among active members
	// maxSize and hyst are the λ-invariant factors of the scan score
	// rate/max(size,1)·(1+0.5·eff).
	maxSize float64 // max(size, 1)
	hyst    float64 // 1 + 0.5·eff
	lo, hi  int     // members: MaxMinSolver.members[lo:hi]
	rate    float64 // Σ targets of the members (per split)
	cache   float64 // cache granted to the group (per split)
}

// rateJob is one job of a demand sum: a max-min program's job at
// normalized rate λ runs at target(λ) and fetches the fraction miss of
// what it reads from remote storage.
type rateJob struct {
	pe    float64 // SiloDPerf under the equal division, bytes/s
	fstar float64 // f*, bytes/s
	// The storage program's: its group's 1 - cache/max(d, 1) at the last
	// split; the bandwidth program's: 1 - min(quota, effective)/max(d, 1).
	// Clamped at 0 either way.
	miss float64
}

// target is the job's throughput at normalized rate lambda:
// min(λ·pe, f*).
//
// silod:pure
func (j *rateJob) target(lambda float64) float64 { return min(lambda*j.pe, j.fstar) }

// demand is the remote IO jobs need at normalized rate lambda, Σ
// target·miss summed in slice order: the one evaluation both max-min
// bisections make.
//
// silod:pure
func demand(jobs []rateJob, lambda float64) float64 {
	var sum float64
	for i := range jobs {
		sum += jobs[i].target(lambda) * jobs[i].miss
	}
	return sum
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
		s.allocate(remCache, lambda)
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
// indices in active: the dataset groups in first-encounter order over
// the active jobs (the demand sum's order follows it), each with its
// members in round order. The scan order starts as the identity.
//
// silod:pure
func (s *MaxMinSolver) groupRound(active []int) {
	resize(&s.alloc, len(active))
	for d := range s.ds {
		s.ds[d].group = -1
	}
	s.groups, s.keys = s.groups[:0], s.keys[:0]
	for _, i := range active {
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
	}
	off := 0
	for g := range s.groups {
		gr := &s.groups[g]
		gr.lo, gr.hi, off = off, off, off+gr.hi
		gr.maxSize = max(gr.size, 1)
		gr.hyst = 1 + 0.5*gr.eff
	}
	members := resize(&s.members, len(active))
	pos := resize(&s.memberPos, len(active))
	for k, i := range active {
		jb := &s.job[i]
		gr := &s.groups[s.ds[jb.ds].group]
		members[gr.hi] = rateJob{pe: jb.pe, fstar: jb.fstar}
		pos[gr.hi] = k
		gr.hi++
	}
	scan := resize(&s.scan, len(s.groups))
	for g := range scan {
		scan[g] = scored{idx: g}
	}
	resize(&s.sLo, len(s.groups))
	resize(&s.sHi, len(s.groups))
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

// scored is one entry of the probe's scan order: a group index and its
// scan score.
type scored struct {
	score float64
	idx   int
}

// scanBefore reports whether a scans strictly before b: byScore,
// descending, with tie keys keys[idx], which it reads only on an exact
// tie.
//
// silod:pure
func scanBefore(a, b scored, keys []string) bool {
	if a.score == b.score {
		return keys[a.idx] < keys[b.idx]
	}
	return a.score > b.score
}

// scanKey is a scan entry's prefix key: its score, descending.
//
// silod:pure
func scanKey(e scored) (uint64, bool) { return keysort.Desc(e.score) }

// split computes every group's rate, the sum of its members'
// target(λ), and the greedy cache division at that lambda: cache goes
// to dataset groups in decreasing order of bandwidth-saved-per-byte
// (g.rate/g.size), with the warm-data hysteresis used throughout
// SiloD's allocators so already-effective datasets win near-ties and
// quotas stay stable as the job set churns. It leaves each member's
// miss fraction in s.members.
//
// A bisection runs it for each verdict until the scan order is pinned
// (maxFeasibleLambda), and allocate runs it once per filling round.
//
// silod:pure
func (s *MaxMinSolver) split(remCache, lambda float64) {
	s.splits++
	groups, members := s.groups, s.members
	for g := range groups {
		gr := &groups[g]
		var rate float64
		for m := gr.lo; m < gr.hi; m++ {
			rate += members[m].target(lambda)
		}
		gr.rate = rate
	}
	scan, keys := s.scan, s.keys
	for k := range scan {
		gr := &groups[scan[k].idx]
		scan[k].score = gr.rate / gr.maxSize * gr.hyst
	}
	// scan persists across λ probes, and the order (score descending,
	// ties to the unique group key) is strict and total, so the sorted
	// permutation is unique: if the previous probe's order is still
	// sorted under the current scores (the common case once the
	// bisection narrows), it already IS the permutation any sort would
	// produce, and the re-sort is skipped.
	for k := 1; k < len(scan); k++ {
		if scanBefore(scan[k], scan[k-1], keys) {
			s.sorter.Sort(scan, scanKey, func(a, b scored) int {
				return byScore(a.score, b.score, keys[a.idx], keys[b.idx], true)
			})
			break
		}
	}
	cacheLeft := remCache
	for _, e := range scan {
		gr := &groups[e.idx]
		give := min(gr.size, cacheLeft)
		gr.cache = give
		cacheLeft -= give
	}
	for g := range groups {
		gr := &groups[g]
		miss := 1 - gr.cache/gr.maxSize
		if miss < 0 {
			miss = 0
		}
		for m := gr.lo; m < gr.hi; m++ {
			members[m].miss = miss
		}
	}
}

// probe splits the cache at lambda and returns the remote IO that split
// needs: t_j · (1 - c/d) per job, the steady-state demand at the
// planned cache (Eq. 2). Warm-up transients are the bandwidth program's
// concern (Bandwidth sizes actual grants effective-aware); the cache
// program plans the steady state, as the paper's formulation does. The
// sum runs over the groups in first-encounter order, so the float
// accumulation order — and with it the feasibility verdict at the
// bisection boundary — is deterministic.
//
// silod:pure
func (s *MaxMinSolver) probe(remCache, lambda float64) float64 {
	s.split(remCache, lambda)
	s.evals++
	return demand(s.members, lambda)
}

// allocate fills s.alloc, by round position, with the cheapest
// allocation giving every active job its target throughput at lambda.
//
// silod:pure
func (s *MaxMinSolver) allocate(remCache, lambda float64) {
	s.split(remCache, lambda)
	for g := range s.groups {
		gr := &s.groups[g]
		cache := unit.Bytes(gr.cache / float64(gr.hi-gr.lo)) // provisional split; merged later
		for m := gr.lo; m < gr.hi; m++ {
			j := &s.members[m]
			t := j.target(lambda)
			s.alloc[s.memberPos[m]] = StorageAlloc{Cache: cache, RemoteIO: unit.Bandwidth(t * j.miss), Perf: unit.Bandwidth(t)}
		}
	}
}

// bisection is one max-min bisection on the normalized rate λ: lo is
// the feasible end (the starting 0 is never probed), hi the infeasible
// one, and left the halvings still to run of the 60 that start from
// [0, hi]. Once (lo+hi)/2 rounds to lo or hi, every further halving
// would re-test an end whose verdict is known and leave both ends as
// they are, so the bisection is over there too.
type bisection struct {
	lo, hi float64
	left   int
}

// mid returns the next point to decide, false once the bisection is
// over.
//
// silod:pure
func (b *bisection) mid() (float64, bool) {
	mid := (b.lo + b.hi) / 2
	return mid, b.left > 0 && mid != b.lo && mid != b.hi
}

// set records mid's verdict.
//
// silod:pure
func (b *bisection) set(mid float64, feasible bool) {
	b.left--
	if feasible {
		b.lo = mid
	} else {
		b.hi = mid
	}
}

// finiteNonneg reports whether x is finite and ≥ 0 (−0 included).
//
// silod:pure
func finiteNonneg(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// maxFeasibleLambda bisects on the normalized rate: at most 60 halvings
// of [0, hi] after a probe at hi, stopped once lo and hi are adjacent
// floats. A verdict is a full probe (split, then the demand sum) until
// the scan order is pinned (probeToPin); from then on every split the
// bisection would make is the same, so settle takes the remaining
// verdicts from the demand sum alone. The verdicts are the full probes'
// in every case, so λ is too, bit for bit. One call splits at most 61
// times and evaluates the demand sum at most 61 + maxGuesses times.
//
// silod:pure
func (s *MaxMinSolver) maxFeasibleLambda(remCache, remIO float64) float64 {
	limit := remIO*(1+1e-9) + 1e-6
	b, rLo, rHi, pinned := s.probeToPin(remCache, limit)
	if pinned {
		return s.settle(&b, s.members, limit, rLo, rHi, true)
	}
	return b.lo
}

// probeToPin runs maxFeasibleLambda's bisection by full probes until it
// is over, or until the scan order is pinned with halvings left; rLo
// and rHi are the demands at the bisection's ends. The bisection starts
// from [0, hi], hi the largest f*/perfEqual ratio, and is over at once
// (with lo = hi) when hi is feasible or (with lo = 0) when hi <= 0.
//
// silod:pure
func (s *MaxMinSolver) probeToPin(remCache, limit float64) (b bisection, rLo, rHi float64, pinned bool) {
	hi := 0.0
	mono := true // every pe and f* finite and ≥ 0: pinned's premise
	for m := range s.members {
		j := &s.members[m]
		if r := j.fstar / j.pe; r > hi {
			hi = r
		}
		mono = mono && finiteNonneg(j.pe) && finiteNonneg(j.fstar)
	}
	if hi <= 0 {
		return b, 0, 0, false
	}
	s.probes++
	if rHi = s.probe(remCache, hi); rHi <= limit {
		return bisection{lo: hi, hi: hi}, 0, rHi, false
	}
	b = bisection{hi: hi, left: 60}
	clear(s.sLo) // the scores at λ = 0, given pinned's premise
	s.keepScores(s.sHi)
	for {
		mid, ok := b.mid()
		if !ok {
			return b, rLo, rHi, false
		}
		if mono && s.pinned() {
			return b, rLo, rHi, true
		}
		s.probes++
		r := s.probe(remCache, mid)
		feasible := r <= limit
		b.set(mid, feasible)
		if feasible {
			rLo = r
			s.keepScores(s.sLo)
		} else {
			rHi = r
			s.keepScores(s.sHi)
		}
	}
}

// keepScores copies the last split's scores into dst, by group index.
//
// silod:pure
func (s *MaxMinSolver) keepScores(dst []float64) {
	for _, e := range s.scan {
		dst[e.idx] = e.score
	}
}

// pinned reports whether the scan order is the sorted order at every λ
// of the bracket [lo, hi], given each group's score at lo in s.sLo and
// at hi in s.sHi, and whether the demand sum of the last split is
// float-monotone in λ.
//
// The premise is that every pe and f* of the round is finite and ≥ 0.
// Then each score is a float-monotone function of λ: fl(min(fl(λ·pe),
// f*)) is monotone, a float sum of monotone terms is monotone, and
// dividing by maxSize ≥ 1 and multiplying by hyst ≥ 1 keeps it so. A
// NaN or infinite size or hysteresis shows as a non-finite score at hi,
// which refuses the pin; so does one at lo, and with finite scores the
// score at λ = 0 is ±0, as s.sLo holds until a probe succeeds. At every
// λ of the bracket each group's score therefore lies in [sLo, sHi],
// and an adjacent pair a before b with sLo[a] > sHi[b], or sLo[a] ==
// sHi[b] and key[a] < key[b], keeps a first. When every adjacent pair
// of the last probe's order does, that order is the unique sorted one
// throughout, and every split inside the bracket makes the last one's
// cache division, which depends only on the order, the sizes and
// remCache. The demand sum at λ is then demand(s.members, λ) with the
// misses the last split left: each target is monotone and each miss a
// fixed finite number ≥ 0, so the sum is float-monotone (it may reach
// +Inf, never NaN).
//
// silod:pure
func (s *MaxMinSolver) pinned() bool {
	scan, keys, sLo, sHi := s.scan, s.keys, s.sLo, s.sHi
	for k := 1; k < len(scan); k++ {
		a, b := scan[k-1].idx, scan[k].idx
		if la, hb := sLo[a], sHi[b]; !(la > hb || la == hb && keys[a] < keys[b]) {
			return false
		}
	}
	for g := range sHi {
		if !finiteNonneg(sLo[g]) || !finiteNonneg(sHi[g]) {
			return false
		}
	}
	for m := range s.members {
		if !finiteNonneg(s.members[m].miss) {
			return false
		}
	}
	return true
}

// maxGuesses bounds the guesses one settle makes.
const maxGuesses = 8

// settle runs the rest of b, deciding each midpoint by demand(jobs, λ)
// <= limit; rLo and rHi are the demands at b's ends. That is the plain
// bisection when mono is false: every midpoint is evaluated.
//
// With mono the demand is float-monotone in λ, so the verdicts have a
// threshold λ†: feasible exactly at λ <= λ†. settle keeps a bracket
// of points whose verdicts it knows, and a midpoint at or below its
// feasible end, or at or above its infeasible end, is decided by that
// comparison alone. A midpoint inside the bracket first gets guesses
// (bracket.guess), while fewer than maxGuesses were made, until their
// verdicts decide it; a midpoint still inside is evaluated. So every
// verdict is the one evaluating the midpoint gives, and settle
// evaluates the demand at most maxGuesses times more than the plain
// bisection would.
//
// silod:pure
func (s *MaxMinSolver) settle(b *bisection, jobs []rateJob, limit, rLo, rHi float64, mono bool) float64 {
	k := bracket{a: b.lo, z: b.hi, fa: rLo - limit, fz: rHi - limit}
	guesses := 0
	for {
		mid, ok := b.mid()
		if !ok {
			return b.lo
		}
		s.probes++
		for mono && k.a < mid && mid < k.z && guesses < maxGuesses {
			x, ok := k.guess()
			if !ok {
				break
			}
			guesses++
			s.evals++
			k.set(x, demand(jobs, x), limit)
		}
		var feasible bool
		switch {
		case mono && mid <= k.a:
			feasible = true
		case mono && mid >= k.z:
			feasible = false
		default:
			s.evals++
			feasible = k.set(mid, demand(jobs, mid), limit)
		}
		b.set(mid, feasible)
	}
}

// bracket is what settle knows of the threshold: a is feasible (or the
// bisection's starting lo, never probed), z is infeasible, 0 <= a < z,
// and fa and fz are their demands less the limit, as the Illinois
// variant of regula falsi weights them.
type bracket struct {
	a, z, fa, fz float64
	moved        int // the end the last verdict moved: -1 a, +1 z, 0 neither yet
}

// set records the demand r at x and returns x's verdict. When an end
// moves twice running, the other end's weight halves (Illinois), so
// the guesses cannot keep landing on one side of the threshold.
//
// silod:pure
func (k *bracket) set(x, r, limit float64) bool {
	feasible := r <= limit
	if feasible {
		if k.moved < 0 {
			k.fz /= 2
		}
		k.a, k.fa, k.moved = x, r-limit, -1
	} else {
		if k.moved > 0 {
			k.fa /= 2
		}
		k.z, k.fz, k.moved = x, r-limit, 1
	}
	return feasible
}

// guess returns a float strictly inside (a, z), or false if there is
// none. While more than four float64 bit patterns lie between the ends
// it is where the weighted line through the ends meets the limit (a
// secant guess); closer in, and when the line gives no number, it is
// the midpoint in bit patterns, which for floats ≥ 0 are in the floats'
// order.
//
// silod:pure
func (k *bracket) guess() (float64, bool) {
	lo, hi := math.Float64bits(k.a), math.Float64bits(k.z)
	if hi-lo < 2 {
		return 0, false
	}
	x := lo + (hi-lo)/2
	if g := k.a + (k.z-k.a)*(k.fa/(k.fa-k.fz)); hi-lo > 4 && g == g {
		x = math.Float64bits(min(max(g, k.a), k.z))
	}
	return math.Float64frombits(min(max(x, lo+1), hi-1)), true
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
// is monotone in the normalized rate λ, so bisection is exact, and
// with every input finite and ≥ 0 it is float-monotone too, so settle
// needs few evaluations; leftover bandwidth (from jobs capped at f*)
// should be spent by the caller.
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
	mono := true // demand float-monotone in λ: every pe, f* and miss finite and ≥ 0
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
		bw[k] = rateJob{pe: p, fstar: fstar, miss: m}
		if r := fstar / p; r > hi {
			hi = r
		}
		mono = mono && finiteNonneg(p) && finiteNonneg(fstar) && finiteNonneg(m)
	}
	budget := float64(total)
	lo := hi
	s.probes++
	s.evals++
	if r := demand(bw, hi); !(r <= budget) {
		lo = s.settle(&bisection{hi: hi, left: 60}, bw, budget, 0, r, mono)
	}
	for k := range bw {
		grant[k] = bw[k].target(lo) * bw[k].miss
	}
}
