package policy

import (
	"math"

	"repro/internal/core"
	"repro/internal/keysort"
	"repro/internal/unit"
)

// SJF is multi-resource shortest-job-first (Tetris [30] / Tiresias [34]
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
type SJF struct {
	Enhanced bool
	// Storage is the baseline allocator used when Enhanced is false.
	Storage StorageAllocator

	// scratch's buffers are recycled across Assign calls; each returned
	// Assignment is valid only until the next Assign. The buffers below
	// are likewise per-call scratch.
	scratch core.Assignment
	items   []ranked // jobs by (score, ID), i the job index
	sorter  keysort.Sorter[ranked]
	want    []unit.Bytes // by job index: the score-minimizing cache
	rankOf  []int        // by job index: position in score order
	runIdx  []int        // running position → job index
	dsIndex map[string]int
	dsOf    []int        // by job index: dataset index, admitted jobs only
	dsQuota []unit.Bytes // by dataset index
	io      ioScratch
}

// Name implements core.Policy.
func (s *SJF) Name() string {
	if s.Enhanced {
		return "sjf+silod"
	}
	return "sjf+" + s.Storage.Name()
}

// sjfScore evaluates Eq. 6/7 for one job, returning the score and the
// score-minimizing cache choice (0 or the full dataset). Weights are
// w_t = 1/totalResource[t] per Tetris [30].
//
// silod:pure
func sjfScore(c core.Cluster, j *core.JobView, enhanced bool) (score float64, wantCache unit.Bytes) {
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

// Assign implements core.Policy. SJF is preemptive at scheduling-round
// granularity, as in Tiresias: the score order alone decides who runs.
// The Eq. 6/7 score never consults `now` (remaining duration comes
// from RemainingBytes), which is what PureAssign's claim rests on.
//
// silod:pure assume=StorageAllocator
func (s *SJF) Assign(c core.Cluster, now unit.Time, jobs []core.JobView) core.Assignment {
	// a points into s, so handing it to the StorageAllocator interface
	// does not move a local Assignment to the heap on every call.
	s.scratch.Reset(len(jobs))
	a := &s.scratch
	items := s.items[:0]
	want := resize(&s.want, len(jobs))
	for i := range jobs {
		sc, w := sjfScore(c, &jobs[i], s.Enhanced)
		items = append(items, ranked{sc, jobs[i].ID, i})
		want[i] = w
	}
	s.sorter.Sort(items, rankedAscKey, rankedAsc)
	s.items = items
	// Admission in score order, all-or-nothing per gang, first-fit.
	// rankOf[i] is job i's score rank, the remote-IO priority below.
	rankOf := resize(&s.rankOf, len(jobs))
	free := c.GPUs
	for r, it := range items {
		rankOf[it.i] = r
		if n := jobs[it.i].NumGPUs; n <= free {
			a.GPUs[it.i] = n
			free -= n
		}
	}
	runIdx := grantedInto(s.runIdx, a.GPUs, true)
	s.runIdx = runIdx
	if !s.Enhanced {
		s.Storage.AllocateStorage(c, jobs, runIdx, a)
		return *a
	}

	// Integrated storage allocation in score order: each admitted job
	// receives its score-minimizing cache (partial if the pool is
	// nearly full — Eq. 4 still benefits from partial caching) and the
	// remote IO to stay compute-bound. Quotas are kept by dataset index
	// (first encounter over the admitted jobs) beside a.CacheQuota.
	idx := resetMap(&s.dsIndex)
	dsOf := resize(&s.dsOf, len(jobs))
	quota := s.dsQuota[:0]
	for i := range jobs {
		if a.GPUs[i] == 0 {
			continue
		}
		d, ok := idx[jobs[i].DatasetKey]
		if !ok {
			d = len(quota)
			idx[jobs[i].DatasetKey] = d
			quota = append(quota, 0)
		}
		dsOf[i] = d
	}
	s.dsQuota = quota
	remCache := c.Cache
	for _, it := range items {
		if a.GPUs[it.i] == 0 {
			continue
		}
		j := &jobs[it.i]
		d := dsOf[it.i]
		have := quota[d]
		w := want[it.i]
		if w > j.DatasetSize {
			w = j.DatasetSize
		}
		if w > have {
			extra := w - have
			if extra > remCache {
				extra = remCache
			}
			quota[d] = have + extra
			a.CacheQuota[j.DatasetKey] = quota[d]
			remCache -= extra
		}
	}
	// Remote IO in score order: the jobs SJF wants done first get their
	// demand first, so their warm-up (and completion) is never gated on
	// an equal split.
	q, rank := s.io.reset(len(runIdx))
	for k, i := range runIdx {
		q[k] = quota[dsOf[i]]
		rank[k] = rankOf[i]
	}
	s.io.priority(c.RemoteIO, jobs, runIdx)
	s.io.write(runIdx, a)
	return *a
}

var _ core.Policy = (*SJF)(nil)
