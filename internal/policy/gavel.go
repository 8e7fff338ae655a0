package policy

import (
	"cmp"
	"math"
	"slices"
	"strings"

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
	// solver is the enhanced storage side's workspace, kept across
	// Assign calls so a warm Gavel allocates nothing; greedy is the
	// TotalThroughput objective's.
	solver MaxMinSolver
	greedy GreedyAllocator

	// Admission-order scratch (see orderViews): per-job scores are
	// computed once and an int permutation is sorted instead of
	// re-evaluating the key per comparison and swapping JobView structs.
	ordScore []float64
	ordIdx   []int
	ordJobs  []core.JobView // the views being ordered, for ordCmp
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
	// a points into g, so handing it to the StorageAllocator interface
	// does not move a local Assignment to the heap on every call.
	g.scratch.Reset()
	a := &g.scratch
	ordered := g.orderViews(jobs, func(j core.JobView) float64 { return g.orderKey(now, j) })
	admitGangs(a.GPUs, c.GPUs, ordered)
	if !g.Enhanced {
		g.admitBuf = admittedViewsInto(g.admitBuf, jobs, a.GPUs)
		g.Storage.AllocateStorage(c, g.admitBuf, a)
		return *a
	}
	// Max-min and finish-time fairness both protect the worst job:
	// cache is allocated across ALL active jobs, not just this round's
	// GPU holders — under time-sharing every active job runs again
	// within a few rounds, and evicting a paused job's dataset would
	// force a re-warm-up on every rotation. Remote IO, by contrast, is
	// only consumed by running jobs, so the bandwidth program (an exact
	// bisection on the Eq. 9 objective) runs over the running set
	// against the planned quotas.
	g.solver.assign(c, jobs, a)
	return *a
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
	g.greedy.AllocateStorage(c, running, &a)
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
	for i := range jobs {
		g.ordScore = append(g.ordScore, key(jobs[i]))
		g.ordIdx = append(g.ordIdx, i)
	}
	g.ordJobs = jobs
	slices.SortFunc(g.ordIdx, g.ordCmp)
	g.ordJobs = nil
	g.ordBuf = g.ordBuf[:0]
	for _, i := range g.ordIdx {
		g.ordBuf = append(g.ordBuf, jobs[i])
	}
	return g.ordBuf
}

// ordCmp orders job indices by (score, ID), ascending.
//
// silod:pure
func (g *Gavel) ordCmp(a, b int) int {
	return byScore(g.ordScore[a], g.ordScore[b], g.ordJobs[a].ID, g.ordJobs[b].ID, false)
}

// orderKey is the GPU-admission sort key for the time-dependent
// objectives (ascending = admitted first); TotalThroughput is handled
// by throughputKey. Running jobs get a 20% edge against preemption in
// all objectives.
func (g *Gavel) orderKey(now unit.Time, j core.JobView) float64 {
	if g.Objective == FinishTimeFairness {
		rho := finishTimeRho(now, j)
		if j.Running {
			rho *= 1.25 // keep running (rho ranks descending via negation)
		}
		return -rho // most wronged first
	}
	d := deficit(now, j)
	if j.Running {
		d *= 0.8
	}
	return d
}

// assign is enhanced Gavel's storage side over the views jobs, whose
// GPU grants a already holds. Cache goes across every active job (the
// max-min storage program), remote IO across the running ones (the
// bandwidth program against the planned quotas), and bandwidth left
// over tops up running jobs by warm-up value. Quotas and grants are
// written straight into a's maps.
//
// silod:pure
func (s *MaxMinSolver) assign(c core.Cluster, jobs []core.JobView, a *core.Assignment) {
	s.storage(c.Cache, c.RemoteIO, jobs)
	for d := range s.ds {
		a.CacheQuota[s.ds[d].key] = s.ds[d].quota
	}
	s.run, s.runQuota = s.run[:0], s.runQuota[:0]
	for i := range jobs {
		if a.GPUs[jobs[i].ID] > 0 {
			s.run = append(s.run, i)
			s.runQuota = append(s.runQuota, float64(s.ds[s.job[i].ds].quota))
		}
	}
	s.bandwidth(c, c.RemoteIO, jobs)
	leftover := float64(c.RemoteIO)
	for _, bw := range s.grant {
		leftover -= bw
	}
	if leftover > 0 {
		s.effRank()
		s.topUpRemoteIO(leftover, a)
	}
	for k, i := range s.run {
		a.RemoteIO[jobs[i].ID] = unit.Bandwidth(s.grant[k])
	}
}

// topUpRemoteIO adds extra bandwidth on top of the running jobs' grants
// in s.grant: first warming jobs in (effRank, ID) order up to their
// instantaneous demand, then an unweighted water-fill over remaining
// unmet demands.
//
// silod:pure
func (s *MaxMinSolver) topUpRemoteIO(extra float64, a *core.Assignment) {
	remaining := extra
	order := resize(&s.runOrder, len(s.run))
	for k := range order {
		order[k] = k
	}
	slices.SortFunc(order, s.rankCmp)
	want := resize(&s.want, len(s.run))
	ids := resize(&s.runIDs, len(s.run))
	for _, k := range order {
		i := s.run[k]
		want[k], ids[k] = 0, s.jobs[i].ID
		gap := instantDemand(s.jobs[i], a) - s.grant[k]
		if gap <= 1e-9 {
			continue
		}
		if s.ds[s.job[i].ds].quota > s.jobs[i].EffectiveCached {
			give := min(gap, remaining)
			s.grant[k] += give
			remaining -= give
			gap -= give
		}
		if gap > 1e-9 {
			want[k] = gap
		}
	}
	if remaining > 1e-9 {
		s.div.WaterFill(s.grant, remaining, want, nil, ids)
	}
}

// rankCmp orders running positions by their dataset's effRank, ties to
// the job ID.
//
// silod:pure
func (s *MaxMinSolver) rankCmp(a, b int) int {
	ia, ib := s.run[a], s.run[b]
	if c := cmp.Compare(s.ds[s.job[ia].ds].rank, s.ds[s.job[ib].ds].rank); c != 0 {
		return c
	}
	return strings.Compare(s.jobs[ia].ID, s.jobs[ib].ID)
}

// effRank ranks datasets by warm-up value (cache efficiency with
// warm-data hysteresis), shared with the greedy allocator's investment
// ordering, into s.ds[d].rank.
//
// silod:pure
func (s *MaxMinSolver) effRank() {
	for d := range s.ds {
		s.ds[d].score, s.ds[d].hot = 0, 0
	}
	for i := range s.jobs {
		j := &s.jobs[i]
		ds := &s.ds[s.job[i].ds]
		d := float64(j.DatasetSize)
		if d <= 0 {
			d = 1
		}
		ds.score += float64(j.Profile.IdealThroughput) / d
		if f := float64(j.CachedBytes) / d; f > ds.hot {
			ds.hot = f
		}
	}
	for d := range s.ds {
		s.ds[d].score *= 1 + 0.5*s.ds[d].hot
	}
	for r, d := range s.sortDatasets() {
		s.ds[d].rank = r
	}
}

var _ core.Policy = (*Gavel)(nil)
