package policy

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/unit"
)

// Gavel implements the max-min fairness policy of Gavel [52] (§5.2).
// Gavel proper solves a mathematical program for fractional GPU
// time-shares each round; with fixed gang sizes the equivalent
// round-based mechanism is least-attained-normalized-service first:
// each round GPUs go to the jobs that have achieved the smallest
// fraction of their ideal progress since submission, which converges to
// the max-min fair share over time. (DESIGN.md records this
// simplification.)
//
// The storage side is where vanilla and SiloD diverge:
//
//   - Vanilla Gavel is storage-oblivious (Eq. 8 with perf = f*):
//     cache/IO come from the baseline allocator, so the fairness
//     objective is computed against an estimator that overestimates
//     IO-bottlenecked jobs.
//   - Enhanced Gavel solves Eq. 9 with SiloDPerf: the exact max-min
//     storage program (MaxMinSolver.Storage) divides cache and remote
//     IO to maximize the minimum normalized performance.
type Gavel struct {
	Enhanced bool
	Storage  StorageAllocator
	// Objective selects Gavel's optimization goal; the zero value is
	// max-min fairness, the paper's running example (§5.2). The SiloD
	// extension "can support not only the max-min fairness objective
	// but also all other objectives supported by Gavel" — the other
	// objectives reuse the same enhanced estimator with a different
	// ordering and storage program.
	Objective GavelObjective

	// scratch's maps are recycled across Assign calls; each returned
	// Assignment is valid only until the next Assign.
	scratch core.Assignment

	// Admission-order scratch (see orderViews): per-job scores are
	// computed once and an int permutation is sorted instead of
	// re-evaluating the key per comparison and swapping JobView structs.
	ordScore []float64
	ordIdx   []int
	ordBuf   []core.JobView
	admitBuf []core.JobView
}

// GavelObjective enumerates the Gavel scheduling goals implemented here.
// silod:enum
type GavelObjective int

// The implemented objectives.
const (
	// MaxMinFairness maximizes the minimum normalized performance
	// (Eq. 8/9) — Gavel's default.
	MaxMinFairness GavelObjective = iota
	// TotalThroughput maximizes aggregate cluster throughput: GPUs go
	// to the jobs with the best achievable normalized rate, cache and
	// bandwidth to wherever they buy the most MB/s (makespan-oriented).
	TotalThroughput
	// FinishTimeFairness minimizes the maximum finish-time ratio
	// (Themis-style rho): jobs whose projected completion is furthest
	// beyond their ideal finish run first.
	FinishTimeFairness
)

// String implements fmt.Stringer.
func (o GavelObjective) String() string {
	switch o {
	case TotalThroughput:
		return "throughput"
	case FinishTimeFairness:
		return "ftf"
	default:
		return "maxmin"
	}
}

// Name implements core.Policy.
func (g *Gavel) Name() string {
	base := "gavel[" + g.Objective.String() + "]"
	if g.Enhanced {
		return base + "+silod"
	}
	return base + "+" + g.Storage.Name()
}

// deficit is the fraction of a job's ideal progress achieved so far;
// lower means more underserved.
func deficit(now unit.Time, j core.JobView) float64 {
	elapsed := float64(now.Sub(j.Submit))
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	idealBytes := float64(j.Profile.IdealThroughput) * elapsed
	if idealBytes <= 0 {
		return math.Inf(1)
	}
	return float64(j.AttainedBytes) / idealBytes
}

// finishTimeRho is the Themis-style finish-time ratio: projected
// completion time divided by the job's ideal (isolated) completion
// time; higher means more wronged. The projection assumes the job's
// recent normalized rate continues.
func finishTimeRho(now unit.Time, j core.JobView) float64 {
	elapsed := float64(now.Sub(j.Submit))
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	fstar := float64(j.Profile.IdealThroughput)
	if fstar <= 0 {
		return 1
	}
	total := float64(j.AttainedBytes + j.RemainingBytes)
	idealFinish := total / fstar
	rate := float64(j.AttainedBytes) / elapsed
	if rate <= 0 {
		// No progress yet: the projection is unbounded; rank by time
		// already wasted relative to the ideal runtime.
		return 1 + elapsed/math.Max(idealFinish, 1e-9)
	}
	projected := elapsed + float64(j.RemainingBytes)/rate
	return projected / math.Max(idealFinish, 1e-9)
}

// Assign implements core.Policy. Currently running jobs get a 20%
// deficit discount — the analogue of Gavel's round quantum: a job is
// not preempted mid-round for a marginally more underserved peer, which
// would churn both GPUs and cache warm-up without improving long-run
// fairness.
func (g *Gavel) Assign(c core.Cluster, now unit.Time, jobs []core.JobView) core.Assignment {
	if g.Objective == TotalThroughput {
		// The throughput objective is the one Gavel configuration whose
		// ordering never consults `now` — the carve-out PureAssign's
		// eligibility rests on — so it lives in its own machine-checked
		// pure function.
		return g.assignThroughput(c, jobs)
	}
	a := g.scratch.Reset()
	ordered := g.orderViews(jobs, g.orderKey(now))
	admitGangs(a.GPUs, c.GPUs, ordered)
	g.admitBuf = admittedViewsInto(g.admitBuf, jobs, a.GPUs)
	running := g.admitBuf
	if !g.Enhanced {
		g.Storage.AllocateStorage(c, running, &a)
		return a
	}
	// Max-min and finish-time fairness both protect the worst job:
	// cache is allocated across ALL active jobs, not just this round's
	// GPU holders — under time-sharing every active job runs again
	// within a few rounds, and evicting a paused job's dataset would
	// force a re-warm-up on every rotation. Remote IO, by contrast, is
	// only consumed by running jobs, so the bandwidth program (an exact
	// bisection on the Eq. 9 objective) runs over the running set
	// against the planned quotas.
	var solver MaxMinSolver
	allocs := solver.Storage(c.Cache, c.RemoteIO, jobs)
	a.CacheQuota = DatasetQuotas(jobs, allocs)
	grants := solver.Bandwidth(c, c.RemoteIO, running, a.CacheQuota)
	leftover := float64(c.RemoteIO)
	for _, j := range running {
		bw := grants[j.ID]
		a.RemoteIO[j.ID] = bw
		leftover -= float64(bw)
	}
	if leftover > 0 {
		rank := maxMinEfficiencyRank(jobs)
		topUpRemoteIO(unit.Bandwidth(leftover), running, &a, func(x, y core.JobView) bool {
			if rank[x.DatasetKey] != rank[y.DatasetKey] {
				return rank[x.DatasetKey] < rank[y.DatasetKey]
			}
			return x.ID < y.ID
		})
	}
	return a
}

// assignThroughput is Assign for the TotalThroughput objective: GPUs
// go to the jobs with the best achievable normalized rate, and storage
// to wherever it buys the most MB/s (Algorithm 2's greedy when
// enhanced, the configured allocator otherwise). It takes no `now` on
// purpose — the throughput score is a function of the views alone,
// which is exactly what lets PureAssign report true here while the
// deficit-based objectives stay impure.
//
// silod:pure assume=StorageAllocator
func (g *Gavel) assignThroughput(c core.Cluster, jobs []core.JobView) core.Assignment {
	a := g.scratch.Reset()
	ordered := g.orderViews(jobs, throughputKey(c, g.Enhanced, len(jobs)))
	admitGangs(a.GPUs, c.GPUs, ordered)
	g.admitBuf = admittedViewsInto(g.admitBuf, jobs, a.GPUs)
	running := g.admitBuf
	if !g.Enhanced {
		g.Storage.AllocateStorage(c, running, &a)
		return a
	}
	// Maximum aggregate throughput wants storage wherever it buys the
	// most MB/s — exactly Algorithm 2's greedy.
	GreedyAllocator{}.AllocateStorage(c, running, &a)
	return a
}

// throughputKey is the TotalThroughput admission score (ascending =
// admitted first): achievable throughput per GPU, assuming the job
// keeps its effective cache and receives an equal bandwidth share.
// Running jobs get the same 20% edge against preemption as the other
// objectives.
//
// silod:pure
func throughputKey(c core.Cluster, enhanced bool, njobs int) func(core.JobView) float64 {
	n := float64(njobs)
	if n < 1 {
		n = 1
	}
	share := float64(c.RemoteIO) / n
	return func(j core.JobView) float64 {
		fstar := float64(j.Profile.IdealThroughput)
		h := 0.0
		if enhanced && j.DatasetSize > 0 {
			h = math.Min(float64(j.EffectiveCached)/float64(j.DatasetSize), 1)
		}
		achievable := math.Min(fstar, fstar*h+share)
		score := achievable / math.Max(float64(j.NumGPUs), 1)
		if j.Running {
			score *= 1.25
		}
		return -score // ascending sort; higher score first
	}
}

// orderViews returns jobs sorted ascending by (key, ID). The key is
// evaluated once per job — not once per comparison — and the sort moves
// an int permutation instead of JobView structs; because the comparator
// is a strict total order (score ties fall to the unique job ID), the
// sorted permutation is unique, so the result is byte-identical to
// sorting the views directly with per-comparison key calls. The
// returned slice is scratch, valid until the next orderViews call.
//
// silod:pure
func (g *Gavel) orderViews(jobs []core.JobView, key func(core.JobView) float64) []core.JobView {
	g.ordScore = g.ordScore[:0]
	g.ordIdx = g.ordIdx[:0]
	for i, j := range jobs {
		g.ordScore = append(g.ordScore, key(j))
		g.ordIdx = append(g.ordIdx, i)
	}
	scores, idx := g.ordScore, g.ordIdx
	sort.Slice(idx, func(a, b int) bool {
		da, db := scores[idx[a]], scores[idx[b]]
		if da != db {
			return da < db
		}
		return jobs[idx[a]].ID < jobs[idx[b]].ID
	})
	g.ordBuf = g.ordBuf[:0]
	for _, i := range idx {
		g.ordBuf = append(g.ordBuf, jobs[i])
	}
	return g.ordBuf
}

// orderKey returns the GPU-admission sort key for the time-dependent
// objectives (ascending = admitted first); TotalThroughput is handled
// by throughputKey. Running jobs get a 20% edge against preemption in
// all objectives.
func (g *Gavel) orderKey(now unit.Time) func(core.JobView) float64 {
	switch g.Objective {
	case FinishTimeFairness:
		return func(j core.JobView) float64 {
			rho := finishTimeRho(now, j)
			if j.Running {
				rho *= 1.25 // keep running (rho ranks descending via negation)
			}
			return -rho // most wronged first
		}
	default:
		return func(j core.JobView) float64 {
			d := deficit(now, j)
			if j.Running {
				d *= 0.8
			}
			return d
		}
	}
}

// topUpRemoteIO adds extra bandwidth on top of existing grants: first
// warming jobs in priority order up to their instantaneous demand, then
// a water-fill over remaining unmet demands.
func topUpRemoteIO(extra unit.Bandwidth, running []core.JobView, a *core.Assignment,
	less func(x, y core.JobView) bool) {
	remaining := float64(extra)
	ordered := append([]core.JobView(nil), running...)
	sort.Slice(ordered, func(i, j int) bool { return less(ordered[i], ordered[j]) })
	unmet := make(map[string]float64)
	for _, j := range ordered {
		gap := instantDemand(j, a) - float64(a.RemoteIO[j.ID])
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

// maxMinEfficiencyRank orders datasets by warm-up value (cache
// efficiency with warm-data hysteresis), shared with the greedy
// allocator's investment ordering.
func maxMinEfficiencyRank(jobs []core.JobView) map[string]int {
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

var _ core.Policy = (*Gavel)(nil)
