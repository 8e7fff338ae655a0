package policy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/simrng"
	"repro/internal/unit"
)

func mkView(id string, gpus int, dsKey string, dsSize unit.Bytes, fstar unit.Bandwidth) core.JobView {
	return core.JobView{
		ID:         id,
		NumGPUs:    gpus,
		Profile:    estimator.JobProfile{IdealThroughput: fstar, DatasetSize: dsSize},
		DatasetKey: dsKey, DatasetSize: dsSize,
		RemainingBytes: 10 * dsSize,
	}
}

func cl8() core.Cluster {
	return core.Cluster{GPUs: 8, Cache: unit.GiB(200), RemoteIO: unit.MBpsOf(200)}
}

// grantAll returns an assignment over jobs with every gang granted, and
// the positions of jobs: what an allocator test hands AllocateStorage.
func grantAll(jobs []core.JobView) (core.Assignment, []int) {
	var a core.Assignment
	a.Reset(len(jobs))
	running := make([]int, len(jobs))
	for i := range jobs {
		a.GPUs[i] = jobs[i].NumGPUs
		running[i] = i
	}
	return a, running
}

// gpusByID and ioByID read a's positional grants over jobs keyed by job
// ID, for tests that name jobs rather than positions.
func gpusByID(a core.Assignment, jobs []core.JobView) map[string]int {
	out := make(map[string]int, len(jobs))
	for i := range jobs {
		out[jobs[i].ID] = a.GPUs[i]
	}
	return out
}

func ioByID(a core.Assignment, jobs []core.JobView) map[string]unit.Bandwidth {
	out := make(map[string]unit.Bandwidth, len(jobs))
	for i := range jobs {
		out[jobs[i].ID] = a.RemoteIO[i]
	}
	return out
}

// TestGreedyAlgorithm2Ordering checks Algorithm 2: cache goes to
// datasets in descending cache-efficiency order with partial caching.
func TestGreedyAlgorithm2Ordering(t *testing.T) {
	jobs := []core.JobView{
		mkView("eff", 1, "small", unit.GiB(50), unit.MBpsOf(100)),   // 2.0 MB/s/GB
		mkView("mid", 1, "medium", unit.GiB(100), unit.MBpsOf(100)), // 1.0
		mkView("low", 1, "huge", unit.GiB(400), unit.MBpsOf(100)),   // 0.25
	}
	a, running := grantAll(jobs)
	new(GreedyAllocator).AllocateStorage(cl8(), jobs, running, &a)
	if a.CacheQuota["small"] != unit.GiB(50) {
		t.Errorf("small quota %v, want full", a.CacheQuota["small"])
	}
	if a.CacheQuota["medium"] != unit.GiB(100) {
		t.Errorf("medium quota %v, want full", a.CacheQuota["medium"])
	}
	// Remaining 50 GiB partially caches the huge dataset (unlike
	// Quiver, partial caching is allowed).
	if a.CacheQuota["huge"] != unit.GiB(50) {
		t.Errorf("huge quota %v, want 50GiB partial", a.CacheQuota["huge"])
	}
}

// TestGreedySharedDatasetsChargedOnce checks the §6 sharing rule: the
// efficiency of a shared dataset sums over its jobs and the quota is
// charged once.
func TestGreedySharedDatasetsChargedOnce(t *testing.T) {
	jobs := []core.JobView{
		mkView("a1", 1, "shared", unit.GiB(150), unit.MBpsOf(60)),
		mkView("a2", 1, "shared", unit.GiB(150), unit.MBpsOf(60)),
		mkView("b", 1, "solo", unit.GiB(150), unit.MBpsOf(100)),
	}
	a, running := grantAll(jobs)
	// Cache fits only one dataset: shared (summed eff 0.8) must beat
	// solo (0.67).
	c := core.Cluster{GPUs: 8, Cache: unit.GiB(150), RemoteIO: unit.MBpsOf(200)}
	new(GreedyAllocator).AllocateStorage(c, jobs, running, &a)
	if a.CacheQuota["shared"] != unit.GiB(150) {
		t.Errorf("shared quota %v, want full (summed efficiency wins)", a.CacheQuota["shared"])
	}
	if a.CacheQuota["solo"] != 0 {
		t.Errorf("solo quota %v, want 0", a.CacheQuota["solo"])
	}
}

// TestGreedyEffectiveAwareIO checks the warm-up-aware IO sizing: a job
// whose quota is not yet effective needs its full cold demand.
func TestGreedyEffectiveAwareIO(t *testing.T) {
	jobs := []core.JobView{mkView("a", 1, "ds", unit.GiB(100), unit.MBpsOf(100))}
	a, running := grantAll(jobs)
	new(GreedyAllocator).AllocateStorage(cl8(), jobs, running, &a)
	// Quota is full but nothing is effective yet: demand is the full f*.
	if got := a.RemoteIO[0].MBpsValue(); math.Abs(got-100) > 1e-6 {
		t.Errorf("cold job granted %v, want full demand 100", got)
	}
	// Once effective, demand drops to zero.
	jobs[0].EffectiveCached = unit.GiB(100)
	jobs[0].CachedBytes = unit.GiB(100)
	a2, _ := grantAll(jobs)
	new(GreedyAllocator).AllocateStorage(cl8(), jobs, running, &a2)
	if got := a2.RemoteIO[0].MBpsValue(); got > 1e-6 {
		t.Errorf("warm job granted %v, want 0", got)
	}
}

func TestQuiverWholeDatasetOnly(t *testing.T) {
	q := NewQuiverAllocator(0, 1)
	jobs := []core.JobView{
		mkView("big", 1, "big", unit.GiB(180), unit.MBpsOf(300)),
		mkView("small", 1, "small", unit.GiB(50), unit.MBpsOf(50)),
	}
	a, running := grantAll(jobs)
	// 100 GiB pool: big (benefit/cost 1.67) would be first but does
	// not fit whole; Quiver skips it (no partial caching) and caches
	// small instead.
	c := core.Cluster{GPUs: 8, Cache: unit.GiB(100), RemoteIO: unit.MBpsOf(100)}
	q.AllocateStorage(c, jobs, running, &a)
	if a.CacheQuota["big"] != 0 {
		t.Errorf("big quota %v, want 0 (no partial caching)", a.CacheQuota["big"])
	}
	if a.CacheQuota["small"] != unit.GiB(50) {
		t.Errorf("small quota %v, want full", a.CacheQuota["small"])
	}
	// Quiver never sets remote IO (scheduler-oblivious).
	for i, bw := range a.RemoteIO {
		if bw != 0 {
			t.Errorf("Quiver set remote IO %v for %s", bw, jobs[i].ID)
		}
	}
}

func TestQuiverHysteresisStabilizes(t *testing.T) {
	q := NewQuiverAllocator(0.05, 7)
	mk := func(cachedFrac float64) []core.JobView {
		a := mkView("a", 1, "ds-a", unit.GiB(100), unit.MBpsOf(100))
		b := mkView("b", 1, "ds-b", unit.GiB(100), unit.MBpsOf(100))
		a.CachedBytes = unit.Bytes(cachedFrac * float64(unit.GiB(100)))
		return []core.JobView{a, b}
	}
	c := core.Cluster{GPUs: 8, Cache: unit.GiB(100), RemoteIO: unit.MBpsOf(100)}
	flips := 0
	for round := 0; round < 200; round++ {
		jobs := mk(1.0) // ds-a fully cached
		a, running := grantAll(jobs)
		q.AllocateStorage(c, jobs, running, &a)
		if a.CacheQuota["ds-a"] == 0 {
			flips++
		}
	}
	if flips > 10 {
		t.Errorf("fully cached dataset displaced %d/200 rounds; hysteresis too weak", flips)
	}
}

func TestCoorDLProportionalPrivateQuotas(t *testing.T) {
	jobs := []core.JobView{
		mkView("one", 1, "ds", unit.GiB(500), unit.MBpsOf(100)),
		mkView("four", 4, "ds", unit.GiB(500), unit.MBpsOf(100)),
	}
	a, running := grantAll(jobs)
	c := core.Cluster{GPUs: 8, Cache: unit.GiB(800), RemoteIO: unit.MBpsOf(100)}
	CoorDLAllocator{}.AllocateStorage(c, jobs, running, &a)
	if got := a.CacheQuota[CoorDLKey("one")]; got != unit.GiB(100) {
		t.Errorf("1-GPU quota %v, want 100GiB", got)
	}
	if got := a.CacheQuota[CoorDLKey("four")]; got != unit.GiB(400) {
		t.Errorf("4-GPU quota %v, want 400GiB", got)
	}
	// Quotas are private: even though both train "ds", the keys differ.
	if _, shared := a.CacheQuota["ds"]; shared {
		t.Error("CoorDL used a shared dataset key")
	}
	// Quota never exceeds the dataset.
	small := []core.JobView{mkView("s", 4, "tiny", unit.GiB(10), unit.MBpsOf(10))}
	a2, running2 := grantAll(small)
	CoorDLAllocator{}.AllocateStorage(c, small, running2, &a2)
	if got := a2.CacheQuota[CoorDLKey("s")]; got != unit.GiB(10) {
		t.Errorf("quota %v exceeds dataset", got)
	}
}

func TestFIFOOrderAndNonPreemption(t *testing.T) {
	f := &FIFO{Storage: AlluxioAllocator{}}
	jobs := []core.JobView{
		mkView("late", 6, "d1", unit.GiB(10), unit.MBpsOf(10)),
		mkView("early", 6, "d2", unit.GiB(10), unit.MBpsOf(10)),
	}
	jobs[0].Submit = 100
	jobs[1].Submit = 50
	g := gpusByID(f.Assign(cl8(), 200, jobs), jobs)
	if g["early"] != 6 || g["late"] != 0 {
		t.Errorf("FIFO admitted %v", g)
	}
	// A running job is never preempted by an earlier-submitted arrival.
	jobs[0].Running = true // late is running now
	g = gpusByID(f.Assign(cl8(), 300, jobs), jobs)
	if g["late"] != 6 || g["early"] != 0 {
		t.Errorf("FIFO preempted a running job: %v", g)
	}
}

func TestFIFOFirstFitSkipsBlockedHead(t *testing.T) {
	f := &FIFO{Storage: AlluxioAllocator{}}
	jobs := []core.JobView{
		mkView("big", 6, "d1", unit.GiB(10), unit.MBpsOf(10)),
		mkView("huge", 8, "d2", unit.GiB(10), unit.MBpsOf(10)),
		mkView("small", 2, "d3", unit.GiB(10), unit.MBpsOf(10)),
	}
	jobs[0].Submit, jobs[1].Submit, jobs[2].Submit = 1, 2, 3
	g := gpusByID(f.Assign(cl8(), 10, jobs), jobs)
	if g["big"] != 6 || g["huge"] != 0 || g["small"] != 2 {
		t.Errorf("first-fit: %v", g)
	}
}

func TestSJFVanillaOrdersByIdealDuration(t *testing.T) {
	s := &SJF{Enhanced: false, Storage: AlluxioAllocator{}}
	// short: 10 GiB of work at 100 MB/s; long: 100 GiB at 100 MB/s.
	short := mkView("short", 6, "d1", unit.GiB(10), unit.MBpsOf(100))
	short.RemainingBytes = unit.GiB(10)
	long := mkView("long", 6, "d2", unit.GiB(10), unit.MBpsOf(100))
	long.RemainingBytes = unit.GiB(100)
	jobs := []core.JobView{long, short}
	g := gpusByID(s.Assign(cl8(), 0, jobs), jobs)
	if g["short"] != 6 || g["long"] != 0 {
		t.Errorf("SJF admitted %v", g)
	}
}

// TestSJFEnhancedCorrectsIOBlindOrdering is the paper's §2.2 example:
// vanilla SJF mis-orders an IO-bottlenecked "short" job; the enhanced
// score accounts for the bottleneck.
func TestSJFEnhancedCorrectsIOBlindOrdering(t *testing.T) {
	// ioBound looks fast (f* = 300 MB/s) but has a huge uncacheable
	// dataset and the cluster has little bandwidth: its real duration
	// is long. steady is slower on paper but cache-friendly.
	c := core.Cluster{GPUs: 6, Cache: unit.GiB(100), RemoteIO: unit.MBpsOf(50)}
	ioBound := mkView("iobound", 6, "huge", unit.TiB(4), unit.MBpsOf(300))
	ioBound.RemainingBytes = unit.GiB(300)
	steady := mkView("steady", 6, "small", unit.GiB(100), unit.MBpsOf(100))
	steady.RemainingBytes = unit.GiB(150)

	vanilla := &SJF{Enhanced: false, Storage: AlluxioAllocator{}}
	jobs := []core.JobView{ioBound, steady}
	if g := gpusByID(vanilla.Assign(c, 0, jobs), jobs); g["iobound"] != 6 {
		t.Fatalf("vanilla SJF should pick the deceptively fast job: %v", g)
	}
	enhanced := &SJF{Enhanced: true}
	if g := gpusByID(enhanced.Assign(c, 0, jobs), jobs); g["steady"] != 6 {
		t.Errorf("enhanced SJF still picked the IO-bound job: %v", g)
	}
}

func TestGavelDeficitOrdering(t *testing.T) {
	g := &Gavel{Enhanced: false, Storage: AlluxioAllocator{}}
	starved := mkView("starved", 6, "d1", unit.GiB(10), unit.MBpsOf(100))
	starved.Submit = 0
	starved.AttainedBytes = 0
	served := mkView("served", 6, "d2", unit.GiB(10), unit.MBpsOf(100))
	served.Submit = 0
	served.AttainedBytes = unit.GiB(50)
	jobs := []core.JobView{served, starved}
	if got := gpusByID(g.Assign(cl8(), 1000, jobs), jobs); got["starved"] != 6 {
		t.Errorf("Gavel did not serve the most underserved job: %v", got)
	}
}

func TestMaxMinStorageBeatsEqualDivision(t *testing.T) {
	jobs := []core.JobView{
		mkView("a", 1, "da", unit.GiB(100), unit.MBpsOf(100)),
		mkView("b", 1, "db", unit.GiB(100), unit.MBpsOf(100)),
	}
	out := new(MaxMinSolver).Storage(unit.GiB(100), unit.MBpsOf(60), jobs)
	// Equal division gives each job 50 GiB + 30 MB/s => 60 MB/s. The
	// max-min optimum must not do worse for the minimum job (λ* >= 1).
	equal := estimator.Resources{Cache: unit.GiB(50), RemoteIO: unit.MBpsOf(30)}
	floor := jobs[0].Profile.Perf(equal).MBpsValue()
	minPerf := math.Min(out["a"].Perf.MBpsValue(), out["b"].Perf.MBpsValue())
	if minPerf < floor*(1-1e-6) {
		t.Errorf("max-min optimum %v below the equal-division floor %v", minPerf, floor)
	}
}

// TestMaxMinStorageFeasibility is the solver's core safety property:
// allocations never exceed the budgets.
func TestMaxMinStorageFeasibility(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := simrng.New(seed)
		count := int(n%6) + 1
		jobs := make([]core.JobView, count)
		for i := range jobs {
			jobs[i] = mkView(
				string(rune('a'+i)), 1,
				string(rune('A'+i%3)), // some shared datasets
				unit.Bytes(rng.Uniform(10, 400))*unit.GB,
				unit.Bandwidth(rng.Uniform(5, 300))*unit.MBps,
			)
			jobs[i].DatasetSize = jobs[i].Profile.DatasetSize
			jobs[i].EffectiveCached = unit.Bytes(rng.Uniform(0, float64(jobs[i].DatasetSize)))
			jobs[i].CachedBytes = jobs[i].EffectiveCached
		}
		// Shared keys need consistent sizes.
		sizes := map[string]unit.Bytes{}
		for i := range jobs {
			if s, ok := sizes[jobs[i].DatasetKey]; ok {
				jobs[i].DatasetSize = s
				jobs[i].Profile.DatasetSize = s
			} else {
				sizes[jobs[i].DatasetKey] = jobs[i].DatasetSize
			}
		}
		totalCache := unit.Bytes(rng.Uniform(0, 500)) * unit.GB
		totalIO := unit.Bandwidth(rng.Uniform(1, 300)) * unit.MBps
		out := new(MaxMinSolver).Storage(totalCache, totalIO, jobs)
		quotas := refDatasetQuotas(jobs, out)
		var cacheSum unit.Bytes
		for key, q := range quotas {
			if q < 0 || q > sizes[key] {
				return false
			}
			cacheSum += q
		}
		var ioSum unit.Bandwidth
		for _, j := range jobs {
			bw := out[j.ID].RemoteIO
			if bw < 0 {
				return false
			}
			ioSum += bw
		}
		return float64(cacheSum) <= float64(totalCache)*(1+1e-6)+1 &&
			float64(ioSum) <= float64(totalIO)*(1+1e-6)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestMaxMinBandwidthTargetsEqualizeNormalizedPerf(t *testing.T) {
	c := core.Cluster{GPUs: 4, Cache: unit.GiB(100), RemoteIO: unit.MBpsOf(60)}
	jobs := []core.JobView{
		mkView("a", 1, "da", unit.GiB(100), unit.MBpsOf(100)),
		mkView("b", 1, "db", unit.GiB(400), unit.MBpsOf(100)),
	}
	quotas := map[string]unit.Bytes{"da": 0, "db": 0}
	grants := solveBandwidth(new(MaxMinSolver), c, c.RemoteIO, jobs, quotas)
	var total unit.Bandwidth
	for _, g := range grants {
		total += g
	}
	if float64(total) > float64(c.RemoteIO)*(1+1e-9) {
		t.Fatalf("oversubscribed: %v", total)
	}
	// Normalized rates (grant / perfEqual) should be equal when neither
	// job saturates.
	n := 2.0
	equal := estimator.Resources{Cache: unit.Bytes(float64(c.Cache) / n), RemoteIO: unit.Bandwidth(float64(c.RemoteIO) / n)}
	ra := float64(grants["a"]) / float64(jobs[0].Profile.Perf(equal))
	rb := float64(grants["b"]) / float64(jobs[1].Profile.Perf(equal))
	if math.Abs(ra-rb)/math.Max(ra, rb) > 0.02 {
		t.Errorf("normalized grants differ: %v vs %v", ra, rb)
	}
}

// TestBuiltPoliciesProduceValidAssignments fuzzes every (scheduler,
// system) pair against Assignment.Validate.
func TestBuiltPoliciesProduceValidAssignments(t *testing.T) {
	rng := simrng.New(99)
	for _, k := range AllSchedulerKinds() {
		for _, cs := range AllCacheSystems() {
			pol, err := Build(k, cs, 1)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 25; trial++ {
				n := rng.Intn(12) + 1
				jobs := make([]core.JobView, n)
				for i := range jobs {
					key := string(rune('A' + rng.Intn(6)))
					size := unit.Bytes(rng.Uniform(10, 400)) * unit.GB
					jobs[i] = mkView(string(rune('a'+i)), []int{1, 2, 4, 8}[rng.Intn(4)],
						key, size, unit.Bandwidth(rng.Uniform(2, 300))*unit.MBps)
					jobs[i].Submit = unit.Time(rng.Uniform(0, 1000))
					jobs[i].AttainedBytes = unit.Bytes(rng.Uniform(0, float64(jobs[i].RemainingBytes)))
					jobs[i].Running = rng.Float64() < 0.5
				}
				// Shared keys need one size.
				sizes := map[string]unit.Bytes{}
				for i := range jobs {
					if s, ok := sizes[jobs[i].DatasetKey]; ok {
						jobs[i].DatasetSize = s
						jobs[i].Profile.DatasetSize = s
					} else {
						sizes[jobs[i].DatasetKey] = jobs[i].DatasetSize
					}
					jobs[i].EffectiveCached = unit.Bytes(rng.Uniform(0, float64(jobs[i].DatasetSize)))
					jobs[i].CachedBytes = jobs[i].EffectiveCached
				}
				c := core.Cluster{
					GPUs:     rng.Intn(16) + 8,
					Cache:    unit.Bytes(rng.Uniform(0, 800)) * unit.GB,
					RemoteIO: unit.Bandwidth(rng.Uniform(1, 500)) * unit.MBps,
				}
				a := pol.Assign(c, unit.Time(rng.Uniform(0, 2000)), jobs)
				if err := a.Validate(c, jobs); err != nil {
					t.Fatalf("%v/%v trial %d: %v", k, cs, trial, err)
				}
			}
		}
	}
}

func TestParseRoundTrips(t *testing.T) {
	for _, cs := range AllCacheSystems() {
		got, err := ParseCacheSystem(cs.String())
		if err != nil || got != cs {
			t.Errorf("ParseCacheSystem(%v) = %v, %v", cs, got, err)
		}
	}
	for _, k := range AllSchedulerKinds() {
		got, err := ParseSchedulerKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseSchedulerKind(%v) = %v, %v", k, got, err)
		}
	}
	if _, err := ParseCacheSystem("bogus"); err == nil {
		t.Error("bogus cache system parsed")
	}
	if _, err := ParseSchedulerKind("bogus"); err == nil {
		t.Error("bogus scheduler parsed")
	}
}

func TestSystemTraits(t *testing.T) {
	if !Alluxio.UsesLRU() || SiloD.UsesLRU() {
		t.Error("UsesLRU")
	}
	if !CoorDL.PrivateCaches() || Quiver.PrivateCaches() {
		t.Error("PrivateCaches")
	}
}

func TestGavelObjectiveOrdering(t *testing.T) {
	c := cl8()
	// Job "hot" is cache-warm with high f* per GPU; "cold" is a big
	// gang with nothing cached.
	hot := mkView("hot", 1, "dh", unit.GiB(100), unit.MBpsOf(200))
	hot.EffectiveCached = unit.GiB(100)
	hot.CachedBytes = unit.GiB(100)
	cold := mkView("cold", 8, "dc", unit.GiB(100), unit.MBpsOf(200))

	tp := &Gavel{Enhanced: true, Objective: TotalThroughput}
	jobs := []core.JobView{cold, hot}
	if g := gpusByID(tp.Assign(c, 100, jobs), jobs); g["hot"] != 1 {
		t.Errorf("throughput objective skipped the cache-hot efficient job: %v", g)
	}

	// Finish-time fairness: the job far beyond its ideal finish runs
	// first.
	wronged := mkView("wronged", 6, "dw", unit.GiB(50), unit.MBpsOf(100))
	wronged.Submit = 0
	wronged.AttainedBytes = unit.GiB(1)
	wronged.RemainingBytes = unit.GiB(49)
	fine := mkView("fine", 6, "df", unit.GiB(50), unit.MBpsOf(100))
	fine.Submit = 0
	fine.AttainedBytes = unit.GiB(400)
	fine.RemainingBytes = unit.GiB(100)
	ftf := &Gavel{Enhanced: true, Objective: FinishTimeFairness}
	jobs = []core.JobView{fine, wronged}
	if g := gpusByID(ftf.Assign(c, 5000, jobs), jobs); g["wronged"] != 6 {
		t.Errorf("FTF objective did not serve the most wronged job: %v", g)
	}
}

func TestGavelObjectiveNames(t *testing.T) {
	for _, o := range []GavelObjective{MaxMinFairness, TotalThroughput, FinishTimeFairness} {
		g := &Gavel{Enhanced: true, Objective: o}
		if g.Name() == "" {
			t.Error("empty name")
		}
	}
	g := &Gavel{Storage: AlluxioAllocator{}, Objective: TotalThroughput}
	if g.Name() != "gavel[throughput]+alluxio" {
		t.Errorf("name = %q", g.Name())
	}
}

// TestGavelObjectivesProduceValidAssignments extends the fuzz coverage
// to the non-default objectives.
func TestGavelObjectivesProduceValidAssignments(t *testing.T) {
	rng := simrng.New(123)
	for _, obj := range []GavelObjective{TotalThroughput, FinishTimeFairness} {
		pol := &Gavel{Enhanced: true, Objective: obj}
		for trial := 0; trial < 25; trial++ {
			n := rng.Intn(10) + 1
			jobs := make([]core.JobView, n)
			for i := range jobs {
				size := unit.Bytes(rng.Uniform(10, 400)) * unit.GB
				jobs[i] = mkView(string(rune('a'+i)), []int{1, 2, 4}[rng.Intn(3)],
					string(rune('A'+rng.Intn(4))), size,
					unit.Bandwidth(rng.Uniform(2, 300))*unit.MBps)
				jobs[i].AttainedBytes = unit.Bytes(rng.Uniform(0, float64(jobs[i].RemainingBytes)))
				jobs[i].Running = rng.Float64() < 0.5
			}
			sizes := map[string]unit.Bytes{}
			for i := range jobs {
				if s, ok := sizes[jobs[i].DatasetKey]; ok {
					jobs[i].DatasetSize = s
					jobs[i].Profile.DatasetSize = s
				} else {
					sizes[jobs[i].DatasetKey] = jobs[i].DatasetSize
				}
				jobs[i].EffectiveCached = unit.Bytes(rng.Uniform(0, float64(jobs[i].DatasetSize)))
				jobs[i].CachedBytes = jobs[i].EffectiveCached
			}
			c := core.Cluster{
				GPUs:     rng.Intn(16) + 4,
				Cache:    unit.Bytes(rng.Uniform(0, 800)) * unit.GB,
				RemoteIO: unit.Bandwidth(rng.Uniform(1, 500)) * unit.MBps,
			}
			a := pol.Assign(c, unit.Time(rng.Uniform(1, 2000)), jobs)
			if err := a.Validate(c, jobs); err != nil {
				t.Fatalf("%v trial %d: %v", obj, trial, err)
			}
		}
	}
}

// TestMaxMinBandwidthProperties: the bandwidth program never
// oversubscribes and is monotone in the budget.
func TestMaxMinBandwidthProperties(t *testing.T) {
	rng := simrng.New(77)
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(8) + 1
		jobs := make([]core.JobView, n)
		quotas := map[string]unit.Bytes{}
		for i := range jobs {
			size := unit.Bytes(rng.Uniform(10, 400)) * unit.GB
			jobs[i] = mkView(string(rune('a'+i)), 1, string(rune('A'+i)), size,
				unit.Bandwidth(rng.Uniform(2, 300))*unit.MBps)
			jobs[i].EffectiveCached = unit.Bytes(rng.Uniform(0, float64(size)))
			quotas[jobs[i].DatasetKey] = unit.Bytes(rng.Uniform(0, float64(size)))
		}
		c := core.Cluster{GPUs: 8,
			Cache:    unit.Bytes(rng.Uniform(0, 800)) * unit.GB,
			RemoteIO: unit.Bandwidth(rng.Uniform(1, 400)) * unit.MBps}
		small := solveBandwidth(new(MaxMinSolver), c, c.RemoteIO/2, jobs, quotas)
		large := solveBandwidth(new(MaxMinSolver), c, c.RemoteIO, jobs, quotas)
		var sumSmall, sumLarge unit.Bandwidth
		for _, j := range jobs {
			if small[j.ID] < 0 || large[j.ID] < 0 {
				t.Fatalf("trial %d: negative grant", trial)
			}
			sumSmall += small[j.ID]
			sumLarge += large[j.ID]
			// Monotonicity: more budget never shrinks a grant (the
			// normalized level only rises).
			if float64(small[j.ID]) > float64(large[j.ID])*(1+1e-9)+1 {
				t.Fatalf("trial %d: grant shrank with larger budget: %v -> %v",
					trial, small[j.ID], large[j.ID])
			}
		}
		if float64(sumSmall) > float64(c.RemoteIO)/2*(1+1e-6)+1 ||
			float64(sumLarge) > float64(c.RemoteIO)*(1+1e-6)+1 {
			t.Fatalf("trial %d: oversubscribed (%v of %v)", trial, sumLarge, c.RemoteIO)
		}
	}
}

// TestGreedyQueuedPrefetchPlanning: the queue-aware allocator funds
// queued datasets only from leftover cache, in efficiency order.
func TestGreedyQueuedPrefetchPlanning(t *testing.T) {
	g := GreedyAllocator{PrefetchQueued: true}
	jobs := []core.JobView{
		mkView("r", 1, "run-ds", unit.GiB(60), unit.MBpsOf(100)),
		mkView("q1", 1, "q-eff", unit.GiB(20), unit.MBpsOf(100)), // 5.0 MB/s/GB
		mkView("q2", 1, "q-big", unit.GiB(100), unit.MBpsOf(50)), // 0.5
	}
	running, queued := []int{0}, []int{1, 2}
	var a core.Assignment
	a.Reset(len(jobs))
	a.GPUs[0] = 1
	c := core.Cluster{GPUs: 8, Cache: unit.GiB(100), RemoteIO: unit.MBpsOf(200)}
	g.AllocateStorageQueued(c, jobs, running, queued, &a)
	if a.CacheQuota["run-ds"] != unit.GiB(60) {
		t.Fatalf("running dataset underfunded: %v", a.CacheQuota["run-ds"])
	}
	if a.CacheQuota["q-eff"] != unit.GiB(20) {
		t.Errorf("efficient queued dataset got %v, want full", a.CacheQuota["q-eff"])
	}
	if a.CacheQuota["q-big"] != unit.GiB(20) {
		t.Errorf("remaining leftover should partially fund q-big: %v", a.CacheQuota["q-big"])
	}
	var sum unit.Bytes
	for _, q := range a.CacheQuota {
		sum += q
	}
	if sum > c.Cache {
		t.Errorf("prefetch planning oversubscribed cache: %v", sum)
	}
	// Without the flag, queued datasets receive nothing.
	var plain core.Assignment
	plain.Reset(len(jobs))
	plain.GPUs[0] = 1
	new(GreedyAllocator).AllocateStorageQueued(c, jobs, running, queued, &plain)
	if _, ok := plain.CacheQuota["q-eff"]; ok {
		t.Error("prefetch disabled but queued dataset funded")
	}
}
