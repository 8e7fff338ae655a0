package policy

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/unit"
)

// refInstance draws one enhanced-Gavel input from a family chosen by
// trial: shared datasets, one job, every job on one dataset, zero
// cache, zero remote IO, warm caches, or no jobs at all.
func refInstance(rng *rand.Rand, trial int) (core.Cluster, unit.Time, []core.JobView) {
	family := trial % 7
	n := 2 + rng.Intn(63)
	datasets := 1 + rng.Intn(n/3+1)
	switch family {
	case 1:
		n = 1
	case 2:
		datasets = 1
	case 6:
		n = 0
	}
	sizes := make([]unit.Bytes, datasets)
	var total unit.Bytes
	for d := range sizes {
		sizes[d] = unit.GiB(float64(1 + rng.Intn(400)))
		total += sizes[d]
	}
	jobs := make([]core.JobView, n)
	for i := range jobs {
		d := rng.Intn(datasets)
		size := sizes[d]
		j := mkView(fmt.Sprintf("j%03d", rng.Intn(1000)*100+i), 1+rng.Intn(8), fmt.Sprintf("ds%02d", d),
			size, unit.MBpsOf(float64(1+rng.Intn(500))))
		if family == 5 || rng.Intn(4) == 0 {
			j.CachedBytes = unit.Bytes(rng.Float64()) * size
			j.EffectiveCached = unit.Bytes(rng.Float64()) * j.CachedBytes
		}
		j.AttainedBytes = unit.Bytes(rng.Float64()) * 5 * size
		j.Submit = unit.Time(rng.Intn(3600))
		j.Running = rng.Intn(2) == 0
		jobs[i] = j
	}
	c := core.Cluster{
		GPUs:     1 + rng.Intn(64),
		Cache:    unit.Bytes(rng.Float64()*1.2) * total,
		RemoteIO: unit.MBpsOf(float64(1 + rng.Intn(4000))),
	}
	switch family {
	case 3:
		c.Cache = 0
	case 4:
		c.RemoteIO = 0
	}
	return c, unit.Time(3600 + rng.Intn(7200)), jobs
}

// TestGavelAssignMatchesReference runs long-lived enhanced Gavels (both
// deficit-ordered objectives) and one long-lived MaxMinSolver over 700
// random instances and requires every GPU grant, quota, storage
// allocation and bandwidth grant to equal the map-based reference
// (maxmin_ref_test.go) bit for bit.
func TestGavelAssignMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var solver MaxMinSolver
	gavels := map[GavelObjective]*Gavel{
		MaxMinFairness:     {Enhanced: true, Objective: MaxMinFairness},
		FinishTimeFairness: {Enhanced: true, Objective: FinishTimeFairness},
	}
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	for trial := 0; trial < 700; trial++ {
		c, now, jobs := refInstance(rng, trial)
		for _, obj := range []GavelObjective{MaxMinFairness, FinishTimeFairness} {
			want := refGavelAssign(obj, c, now, jobs)
			if err := sameAs(want, gavels[obj].Assign(c, now, jobs), jobs); err != nil {
				t.Fatalf("trial %d (%d jobs) %v: product vs reference: %v", trial, len(jobs), obj, err)
			}
		}

		wantS := refStorage(c.Cache, c.RemoteIO, jobs)
		gotS := solver.Storage(c.Cache, c.RemoteIO, jobs)
		if len(gotS) != len(wantS) {
			t.Fatalf("trial %d: %d storage allocs, reference %d", trial, len(gotS), len(wantS))
		}
		for id, w := range wantS {
			g := gotS[id]
			if bits(float64(g.Cache)) != bits(float64(w.Cache)) || bits(float64(g.RemoteIO)) != bits(float64(w.RemoteIO)) ||
				bits(float64(g.Perf)) != bits(float64(w.Perf)) {
				t.Fatalf("trial %d job %s: storage %+v, reference %+v", trial, id, g, w)
			}
		}
		quota := refDatasetQuotas(jobs, wantS)
		running := jobs[:len(jobs)/2]
		wantB := refBandwidth(c, c.RemoteIO, running, quota)
		gotB := solveBandwidth(&solver, c, c.RemoteIO, running, quota)
		if len(gotB) != len(wantB) {
			t.Fatalf("trial %d: %d grants, reference %d", trial, len(gotB), len(wantB))
		}
		for id, w := range wantB {
			if bits(float64(gotB[id])) != bits(float64(w)) {
				t.Fatalf("trial %d job %s: grant %v, reference %v", trial, id, gotB[id], w)
			}
		}
	}
}

// TestGavelAssignMatchesReferenceAtScale is the reference comparison at
// the Figure 12 trace's scale, where refInstance's 64 jobs never reach:
// 150–400 jobs, most on a dataset of their own and some sharing, and a
// cache that runs out part way down the scan order, so the probe
// re-sorts a couple of hundred groups.
func TestGavelAssignMatchesReferenceAtScale(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	gavels := map[GavelObjective]*Gavel{
		MaxMinFairness:     {Enhanced: true, Objective: MaxMinFairness},
		FinishTimeFairness: {Enhanced: true, Objective: FinishTimeFairness},
	}
	for trial := 0; trial < 24; trial++ {
		n := 150 + rng.Intn(251)
		shared := 1 + rng.Intn(12)
		var total unit.Bytes
		jobs := make([]core.JobView, n)
		for i := range jobs {
			key, size := fmt.Sprintf("solo-%03d", i), unit.GiB(float64(20+rng.Intn(1500)))
			if rng.Intn(6) == 0 {
				d := rng.Intn(shared)
				key, size = fmt.Sprintf("shared-%02d", d), unit.GiB(float64(100+50*d))
			}
			total += size
			j := mkView(fmt.Sprintf("job-%04d", rng.Intn(10000)*1000+i), []int{1, 2, 4, 8}[rng.Intn(4)], key,
				size, unit.MBpsOf(float64(5+rng.Intn(600))))
			if rng.Intn(3) == 0 {
				j.CachedBytes = unit.Bytes(rng.Float64()) * size
				j.EffectiveCached = unit.Bytes(rng.Float64()) * j.CachedBytes
			}
			j.AttainedBytes = unit.Bytes(rng.Float64()) * 5 * size
			j.Submit = unit.Time(rng.Intn(43200))
			j.Running = rng.Intn(2) == 0
			jobs[i] = j
		}
		c := core.Cluster{
			GPUs:     400,
			Cache:    unit.Bytes(0.2+0.6*rng.Float64()) * total,
			RemoteIO: unit.Gbps(float64(8 + rng.Intn(57))),
		}
		now := unit.Time(43200 + rng.Intn(7200))
		for _, obj := range []GavelObjective{MaxMinFairness, FinishTimeFairness} {
			want := refGavelAssign(obj, c, now, jobs)
			if err := sameAs(want, gavels[obj].Assign(c, now, jobs), jobs); err != nil {
				t.Fatalf("trial %d (%d jobs) %v: product vs reference: %v", trial, n, obj, err)
			}
		}
	}
}

// lpMinIO is the cache side of Eq. 9 at fixed targets, solved without
// the solver's greedy order: the least remote IO that any cache split
// within budget leaves to fetch. The program is a fractional knapsack,
// so an optimum lies on a vertex of its LP — every dataset uncached or
// whole except at most one, which takes what budget is left — and this
// enumerates all of them.
func lpMinIO(rate, size []float64, budget float64) float64 {
	need := func(d int, c float64) float64 { return rate[d] * max(1-c/max(size[d], 1), 0) }
	best := math.Inf(1)
	for mask := 0; mask < 1<<len(rate); mask++ {
		used, io := 0.0, 0.0
		for d := range rate {
			if mask>>d&1 == 1 {
				used += size[d]
				io += need(d, size[d])
			} else {
				io += need(d, 0)
			}
		}
		if used > budget {
			continue
		}
		best = min(best, io)
		for f := range rate {
			if mask>>f&1 == 0 {
				best = min(best, io-need(f, 0)+need(f, min(size[f], budget-used)))
			}
		}
	}
	return best
}

// oracleLambda bisects λ with lpMinIO as the feasibility test, exactly
// as the solver's first filling round does (same bracket, same 60
// halvings, same tolerance), and returns λ* with every job's pe, its
// SiloDPerf under equal division.
func oracleLambda(cache unit.Bytes, io unit.Bandwidth, jobs []core.JobView) (lambda float64, pe []float64) {
	n := float64(len(jobs))
	equal := estimator.Resources{Cache: unit.Bytes(float64(cache) / n), RemoteIO: unit.Bandwidth(float64(io) / n)}
	index := map[string]int{}
	var size []float64
	ds := make([]int, len(jobs))
	hi := 0.0
	for i, j := range jobs {
		fstar := float64(j.Profile.IdealThroughput)
		p := float64(j.Profile.Perf(equal))
		if p <= 0 {
			p = fstar
		}
		pe = append(pe, p)
		hi = max(hi, fstar/p)
		d, ok := index[j.DatasetKey]
		if !ok {
			d = len(size)
			index[j.DatasetKey] = d
			size = append(size, float64(j.DatasetSize))
		}
		ds[i] = d
	}
	feasible := func(lambda float64) bool {
		rate := make([]float64, len(size))
		for i, j := range jobs {
			rate[ds[i]] += min(lambda*pe[i], float64(j.Profile.IdealThroughput))
		}
		return lpMinIO(rate, size, float64(cache)) <= float64(io)*(1+1e-9)+1e-6
	}
	if feasible(hi) {
		return hi, pe
	}
	lo := 0.0
	for k := 0; k < 60; k++ {
		if mid := (lo + hi) / 2; feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, pe
}

// TestMaxMinStorageOptimal checks the storage program against an
// independent optimum on small instances (≤ 6 jobs, ≤ 4 datasets).
//
//   - The first filling round's bisection reaches the oracle's λ*
//     within 1e-9 when no bytes are cached (the greedy scan order then
//     carries no hysteresis and is the knapsack's optimal order), and
//     never exceeds it when datasets are warm.
//   - The final allocation fits both budgets, and its level — the least
//     normalized performance, Perf_j/pe_j — never beats the optimum
//     min_j min(λ*·pe_j, f*_j)/pe_j.
//   - Cold and with no dataset shared, the level equals the optimum
//     within 1e-9. A shared dataset whose jobs freeze in different
//     filling rounds can leave the level below it: a job frozen early
//     keeps the bandwidth planned against its whole group's cache but
//     only its share of that cache, and a later round may re-grant the
//     dataset less.
func TestMaxMinStorageOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var s MaxMinSolver
	below := 0
	for trial := 0; trial < 2000; trial++ {
		warm := trial%2 == 1
		n := 1 + rng.Intn(6)
		datasets := 1 + rng.Intn(4)
		sizes := make([]unit.Bytes, datasets)
		var total unit.Bytes
		for d := range sizes {
			sizes[d] = unit.GiB(float64(10 + rng.Intn(400)))
			total += sizes[d]
		}
		jobs := make([]core.JobView, n)
		used := map[int]int{}
		for i := range jobs {
			d := rng.Intn(datasets)
			used[d]++
			jobs[i] = mkView(fmt.Sprintf("j%d", i), 1, fmt.Sprintf("ds%d", d), sizes[d], unit.MBpsOf(float64(5+rng.Intn(500))))
			if warm {
				jobs[i].CachedBytes = unit.Bytes(rng.Float64()) * sizes[d]
			}
		}
		cache := unit.Bytes(rng.Float64()*1.2) * total
		io := unit.MBpsOf(float64(1 + rng.Intn(1500)))
		lambdaStar, pe := oracleLambda(cache, io, jobs)

		// The first filling round, on the solver's own probe.
		s.index(jobs)
		active := make([]int, n)
		for i := range active {
			s.job[i].pe = pe[i]
			active[i] = i
		}
		s.groupRound(active)
		lambda := s.maxFeasibleLambda(float64(cache), float64(io))
		if lambda > lambdaStar*(1+1e-9) || !warm && lambda < lambdaStar*(1-1e-9) {
			t.Fatalf("trial %d (warm %v): bisection λ %v, optimum %v", trial, warm, lambda, lambdaStar)
		}

		out := s.Storage(cache, io, jobs)
		level, want := math.Inf(1), math.Inf(1)
		var ioSum unit.Bandwidth
		for i, j := range jobs {
			level = min(level, float64(out[j.ID].Perf)/pe[i])
			want = min(want, min(lambdaStar*pe[i], float64(j.Profile.IdealThroughput))/pe[i])
			ioSum += out[j.ID].RemoteIO
		}
		var cacheSum unit.Bytes
		for _, q := range refDatasetQuotas(jobs, out) {
			cacheSum += q
		}
		if float64(cacheSum) > float64(cache)*(1+1e-9)+1 || float64(ioSum) > float64(io)*(1+1e-9)+1e-3 {
			t.Fatalf("trial %d: cache %v of %v, IO %v of %v", trial, cacheSum, cache, ioSum, io)
		}
		if level > want*(1+1e-9) {
			t.Fatalf("trial %d (warm %v): level %v beats the optimum %v", trial, warm, level, want)
		}
		if !warm && level < want*(1-1e-9) {
			if len(used) == n {
				t.Fatalf("trial %d: level %v below the optimum %v with no dataset shared", trial, level, want)
			}
			below++
		}
	}
	t.Logf("cold instances with a shared dataset left below the optimum: %d of 1000", below)
}

// TestSpendSlackNeverLowersPerf: spending leftover cache and bandwidth
// only adds to allocations, so no job's performance after the dataset
// merge is lower than it was without the slack pass.
func TestSpendSlackNeverLowersPerf(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var s MaxMinSolver
	for trial := 0; trial < 300; trial++ {
		jobs := randViews(rng, 1+rng.Intn(20))
		s.index(jobs)
		// A progressive-filling-shaped state: each dataset's cache split
		// evenly among its jobs, each job's bandwidth exactly what its
		// target needs at that cache.
		cache := make([]float64, len(s.ds))
		for d := range cache {
			cache[d] = rng.Float64() * s.ds[d].firstSize
		}
		for i := range jobs {
			d := &s.ds[s.job[i].ds]
			t := rng.Float64() * s.job[i].fstar
			s.res[i] = StorageAlloc{
				Cache:    unit.Bytes(cache[s.job[i].ds] / float64(d.n)),
				RemoteIO: unit.Bandwidth(t * max(1-cache[s.job[i].ds]/max(d.firstSize, 1), 0)),
				Perf:     unit.Bandwidth(t),
			}
		}
		before := append([]StorageAlloc(nil), s.res...)
		s.mergeSharedCache()
		merged := append([]StorageAlloc(nil), s.res...)
		copy(s.res, before)
		s.spendSlack(rng.Float64()*float64(unit.GiB(300)), rng.Float64()*float64(unit.MBpsOf(500)))
		s.mergeSharedCache()
		for i := range jobs {
			if s.res[i].Perf < merged[i].Perf*(1-1e-12) {
				t.Fatalf("trial %d job %s: perf %v with slack spent, %v without", trial, jobs[i].ID, s.res[i].Perf, merged[i].Perf)
			}
		}
	}
}

// sharedBenchJobs is benchJobs(n) with the jobs spread over 17 shared
// datasets.
func sharedBenchJobs(n int) []core.JobView {
	jobs := benchJobs(n)
	for i := range jobs {
		d := i % 17
		jobs[i].DatasetKey = fmt.Sprintf("shared-%02d", d)
		jobs[i].DatasetSize = jobs[d].Profile.DatasetSize
		jobs[i].Profile.DatasetSize = jobs[d].Profile.DatasetSize
		jobs[i].CachedBytes = jobs[i].DatasetSize / unit.Bytes(2+i%5)
		jobs[i].EffectiveCached = jobs[i].CachedBytes / 2
	}
	return jobs
}

// TestGavelAssignAllocatesNothing: after one warm-up call, enhanced
// max-min Gavel.Assign — admission, the storage and bandwidth programs
// and the top-up — performs no heap allocation.
func TestGavelAssignAllocatesNothing(t *testing.T) {
	c := core.Cluster{GPUs: 400, Cache: unit.TiB(100), RemoteIO: unit.GBpsOf(4)}
	for name, jobs := range map[string][]core.JobView{
		"benchJobs(200)": benchJobs(200),
		"shared":         sharedBenchJobs(200),
	} {
		g := &Gavel{Enhanced: true}
		if allocs := testing.AllocsPerRun(5, func() { g.Assign(c, unit.Time(3600), jobs) }); allocs != 0 {
			t.Errorf("%s: %v allocations per Assign, want 0", name, allocs)
		}
	}
}

// TestResizeGrowsGeometrically: a buffer grown one element at a time
// from 1 to 1,000 reallocates O(log n) times, not once per growth.
func TestResizeGrowsGeometrically(t *testing.T) {
	const n = 1000
	var buf []int
	reallocs := 0
	for i := 1; i <= n; i++ {
		before := cap(buf)
		if got := resize(&buf, i); len(got) != i {
			t.Fatalf("resize(%d) has length %d", i, len(got))
		}
		if cap(buf) != before {
			reallocs++
		}
	}
	if limit := bits.Len(n) + 1; reallocs > limit {
		t.Errorf("%d reallocations growing 1 → %d, want at most %d", reallocs, n, limit)
	}
}

// solveBandwidth runs s's bandwidth-only program over running with the
// dataset quotas quota fixed and returns the grants by job ID.
func solveBandwidth(s *MaxMinSolver, cl core.Cluster, total unit.Bandwidth, running []core.JobView,
	quota map[string]unit.Bytes) map[string]unit.Bandwidth {
	run := resize(&s.run, len(running))
	runQuota := resize(&s.runQuota, len(running))
	for k := range running {
		run[k] = k
		runQuota[k] = float64(quota[running[k].DatasetKey])
	}
	s.bandwidth(cl, total, running)
	out := make(map[string]unit.Bandwidth, len(running))
	for k := range running {
		out[running[k].ID] = unit.Bandwidth(s.grant[k])
	}
	return out
}
