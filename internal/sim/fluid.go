package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/unit"
	"repro/internal/workload"
)

// dsRT is the fluid engine's per-cache-key state. The engine keeps one
// per cache key of the run, indexed by the key's rank in sorted order
// (jobRT.ds), so walking the table in index order is walking the keys
// sorted. A key is live from its first use until no unfinished job
// reads it; a dead key holds no quota and no cached bytes.
type dsRT struct {
	key     string
	size    unit.Bytes
	quota   unit.Bytes
	cached  unit.Bytes
	live    bool
	pending int // unfinished jobs on the key
}

// subByteResidue is the completion threshold for fluid integration:
// float advance steps leave sub-byte residue on remaining/epochLeft,
// which counts as finished rather than scheduling another step.
const subByteResidue unit.Bytes = 0.5

// fluidSim is the fluid engine state.
type fluidSim struct {
	engine
	datasets []dsRT         // by rank (jobRT.ds)
	rankOf   map[string]int // cache key → rank

	now        unit.Time
	nextArrive int
	lastSample unit.Time

	// Scratch for jobRates and the Che fixed point, recomputed every
	// integration step; see engine for the lifetime rule.
	ratesBuf   []unit.Bandwidth
	lruRates   []float64
	lruPrev    []float64
	lruIdx     []int
	streamsBuf []cache.FluidStream
	cheHits    []float64

	// LRU stream-layout memo: which jobs share a dataset key, the
	// sorted key order, and each job's stream index depend only on the
	// identity of the running set, not on rates or cache state, so
	// lruHits rebuilds them only when the running set changes.
	layoutJobs []*jobRT
	lruKeys    []int // ranks of the running jobs' keys, ascending
	lruUsers   []int // per running-index sharer count for j.ds

	// By rank, recycled across rounds, steps and samples: running jobs
	// per key (lruHits, sample, prefetch), stream positions (lruHits)
	// and effective-byte sums (sample). Counts and sums are zero
	// between uses: each user clears what it set before returning.
	rankCount []int
	rankPos   []int
	effSum    []float64

	funded      []rankQuota // reschedule: the assignment's keys by rank
	prefetchBuf []int       // ranks prefetching this step
	realizedBuf map[string]unit.Bandwidth

	// Rate memo: jobRates is a deterministic function of inputs that
	// only change at discrete points (assignment application, fault
	// landing, warm-up transitions, running-set changes). rateGen is
	// bumped at each such point; between bumps the scratch buffers
	// still hold the exact answer, so the whole Che fixed point and
	// bandwidth division are skipped.
	rateGen      uint64
	lastRateGen  uint64
	rateMemoOK   bool
	lastRateJobs []*jobRT
}

// runFluid executes the fluid engine.
func runFluid(cfg Config, specs []workload.JobSpec) (*Result, error) {
	for _, spec := range specs {
		if spec.Curriculum != nil {
			// The fluid engine's closed forms assume the regular
			// exactly-once-per-epoch pattern (§2.2); curriculum jobs
			// resample and must run on the block-level engine.
			return nil, fmt.Errorf("sim: job %s uses curriculum learning; use Engine: Batch", spec.ID)
		}
	}
	s := &fluidSim{
		rankOf:      make(map[string]int),
		realizedBuf: make(map[string]unit.Bandwidth),
	}
	var jobs []*jobRT
	for _, spec := range orderSpecs(specs) {
		jobs = append(jobs, newJobRT(spec, cfg.System))
	}
	s.rankKeys(jobs)
	var err error
	if s.engine, err = newEngine(cfg, jobs); err != nil {
		return nil, err
	}
	if err := s.loop(); err != nil {
		return nil, err
	}
	return s.finish(s.now), nil
}

// rankKeys ranks every cache key of the run in sorted order, builds
// the dataset table and points each job at its key's entry.
func (s *fluidSim) rankKeys(jobs []*jobRT) {
	keys := make([]string, 0, len(jobs))
	for _, j := range jobs {
		if _, seen := s.rankOf[j.dsKey]; !seen {
			s.rankOf[j.dsKey] = -1 // ranked below
			keys = append(keys, j.dsKey)
		}
	}
	slices.Sort(keys)
	s.datasets = make([]dsRT, len(keys))
	for r, key := range keys {
		s.rankOf[key] = r
		s.datasets[r].key = key
	}
	for _, j := range jobs {
		j.ds = s.rankOf[j.dsKey]
		s.datasets[j.ds].pending++
	}
	s.rankCount = make([]int, len(keys))
	s.rankPos = make([]int, len(keys))
	s.effSum = make([]float64, len(keys))
}

// ds returns the cache-key state for a job, bringing the key to life
// on first use.
func (s *fluidSim) ds(j *jobRT) *dsRT {
	d := &s.datasets[j.ds]
	if !d.live {
		d.live = true
		d.size = j.spec.Dataset.Size
	}
	return d
}

// reschedule runs the policy over active jobs and applies the
// assignment to the fluid state.
func (s *fluidSim) reschedule() error {
	act := s.active(s.now)
	views := resize(&s.viewsBuf, len(act))
	for i, j := range act {
		views[i] = j.view()
		views[i].CachedBytes = minBytes(s.ds(j).cached, j.spec.Dataset.Size)
	}
	// The policy solves against the *effective* capacity: after a fault
	// the re-solve must not over-grant GPUs, cache, or bandwidth, and
	// Assignment validation enforces it against the same view.
	a, reused, err := s.round.Solve(s.eff, s.now, views)
	if err != nil {
		return fmt.Errorf("sim: at t=%v policy %s produced invalid assignment: %w",
			s.now, s.cfg.Policy.Name(), err)
	}
	s.met.reschedules.Inc()
	// A reused assignment with no running-set transitions leaves every
	// rate input untouched; anything else invalidates the rate memo.
	// Transitions can occur even under a reused solve: a crash flips
	// j.running between rounds, and re-applying the memoized grants
	// readmits the job — a rate-relevant change the views comparison
	// cannot see when the policy ignores FieldRunning.
	rateDirty := !reused
	// GPUs: grant/revoke.
	for _, j := range act {
		started, stopped := s.grantGPUs(s.now, j, a.GPUs[j.spec.ID])
		if started || stopped {
			rateDirty = true
		}
		if stopped {
			s.halt(j, s.faultPreempt)
		}
		if started {
			// (Re)admission: the effective cache for the rest of this
			// epoch is whatever was cached before now.
			j.effCached = minBytes(s.ds(j).cached, j.spec.Dataset.Size)
		}
	}
	// Cache quotas (quota-based systems only; LRU manages itself).
	// Apply in sorted key order: quota changes land on the event
	// timeline, and map-iteration order would leak into the dump.
	// Funded keys unknown to the run name no dataset and change nothing.
	if !s.cfg.System.UsesLRU() {
		funded := s.funded[:0]
		for key, q := range a.CacheQuota {
			if r, ok := s.rankOf[key]; ok {
				funded = append(funded, rankQuota{r, q})
			}
		}
		slices.SortFunc(funded, func(x, y rankQuota) int { return cmp.Compare(x.rank, y.rank) })
		s.funded = funded
		for _, fq := range funded {
			s.applyQuota(fq.rank, fq.quota)
		}
		// Live keys not mentioned lose their allocation: the data
		// manager evicts datasets the scheduler no longer funds.
		f := 0
		for r := range s.datasets {
			if f < len(funded) && funded[f].rank == r {
				f++
			} else if s.datasets[r].live {
				s.applyQuota(r, 0)
			}
		}
	}
	s.applyRemoteIO(s.now, act, a)
	if rateDirty {
		s.rateGen++
	}
	s.faultPreempt = false
	return nil
}

// cacheResized implements faultReactor: after a loss, contents and
// effective snapshots scale by the survival ratio, and hit ratios
// re-derive from the shrunken snapshot on the next rate computation.
func (s *fluidSim) cacheResized(before unit.Bytes) {
	if s.eff.Cache >= before {
		return
	}
	ratio := float64(s.eff.Cache) / float64(before)
	for r := range s.datasets {
		if d := &s.datasets[r]; d.live {
			d.cached = unit.Bytes(float64(d.cached) * ratio)
		}
	}
	for _, j := range s.jobs {
		if !j.done {
			j.effCached = unit.Bytes(float64(j.effCached) * ratio)
		}
	}
}

// halt implements faultReactor.
func (s *fluidSim) halt(j *jobRT, lostEpoch bool) {
	if lostEpoch {
		j.rollbackEpoch()
	}
}

// rankQuota is one funded key of an assignment, by rank.
type rankQuota struct {
	rank  int
	quota unit.Bytes
}

// applyQuota sets the quota of the key ranked r, evicting
// proportionally on shrink (random eviction keeps the cached set
// uniform, so every job's effective cache scales by the survival
// ratio). A dead key comes back to life sized by its first job.
func (s *fluidSim) applyQuota(r int, q unit.Bytes) {
	d := &s.datasets[r]
	if !d.live {
		for _, j := range s.jobs {
			if j.ds == r {
				s.ds(j)
				break
			}
		}
	}
	if q.Changed(d.quota) {
		s.met.tl.RecordAt(float64(s.now), metrics.EventCacheAlloc, d.key, float64(q), "quota_bytes")
	}
	d.quota = q
	if d.cached > q {
		ratio := 0.0
		if d.cached > 0 {
			ratio = float64(q) / float64(d.cached)
		}
		d.cached = q
		for _, j := range s.jobs {
			if j.ds == r && !j.done {
				j.effCached = unit.Bytes(float64(j.effCached) * ratio)
			}
		}
	}
}

// jobRates computes each running job's data-loading hit ratio and
// end-to-end throughput under the current allocations. The returned
// slices are scratch, valid until the next call.
//
// Runs on every simulator event; all buffers are
// sim-owned scratch grown via resize.
func (s *fluidSim) jobRates(running []*jobRT) (hits []float64, rates []unit.Bandwidth) {
	if s.rateMemoOK && s.rateGen == s.lastRateGen && samePtrs(running, s.lastRateJobs) {
		// No rate-relevant input changed since the last computation
		// (reschedule, epoch warm-up and fault transitions all bump
		// rateGen) and the running set is the same jobs: the scratch
		// buffers still hold the exact answer — including the full Che
		// fixed point for LRU systems — so recomputing is a no-op.
		n := len(running)
		return s.hitsBuf[:n], s.ratesBuf[:n]
	}
	s.rateMemoOK = false
	hits = resize(&s.hitsBuf, len(running))
	rates = resize(&s.ratesBuf, len(running))
	if len(running) == 0 {
		return hits, rates
	}
	if s.cfg.System.UsesLRU() {
		s.lruHits(running, hits)
	} else {
		for i, j := range running {
			hits[i] = 0
			if d := float64(j.spec.Dataset.Size); d > 0 {
				hits[i] = math.Min(float64(j.effCached)/d, 1)
			}
		}
	}
	grants := s.remoteIOGrants(running, hits, nil)
	for i, j := range running {
		rates[i] = j.throughputAt(grants[i], hits[i])
	}
	if !s.cfg.FullResolve {
		s.lastRateGen = s.rateGen
		s.lastRateJobs = append(s.lastRateJobs[:0], running...)
		s.rateMemoOK = true
	}
	return hits, rates
}

// lruHits runs the Che fixed point: hit ratios depend on loading rates,
// which depend on bandwidth shares, which depend on hit ratios.
// First-epoch jobs on datasets nobody else shares cannot hit (each item
// is read at most once before the first epoch completes).
func (s *fluidSim) lruHits(running []*jobRT, hits []float64) {
	// The dataset layout — which jobs share a key, the sorted key order,
	// and each job's stream index — is invariant across the fixed-point
	// iterations AND across calls with the same running set (a job's
	// dsKey never changes), so it is rebuilt only when the running set
	// does. The cached layout is byte-identical to a rebuild: it is a
	// deterministic function of the jobs' dataset keys alone.
	if !samePtrs(running, s.layoutJobs) {
		users := s.rankCount
		keys := s.lruKeys[:0]
		for _, j := range running {
			if users[j.ds] == 0 {
				keys = append(keys, j.ds)
			}
			users[j.ds]++
		}
		slices.Sort(keys)
		s.lruKeys = keys
		for p, r := range keys {
			s.rankPos[r] = p
		}
		idx := resize(&s.lruIdx, len(running))
		uc := resize(&s.lruUsers, len(running))
		for i, j := range running {
			idx[i] = s.rankPos[j.ds]
			uc[i] = users[j.ds]
		}
		for _, r := range keys {
			users[r] = 0
		}
		s.layoutJobs = append(s.layoutJobs[:0], running...)
	}
	keys := s.lruKeys
	idx := s.lruIdx
	streams := resize(&s.streamsBuf, len(keys))
	rates := resize(&s.lruRates, len(running))
	prev := resize(&s.lruPrev, len(running))
	for i, j := range running {
		rates[i] = float64(j.profile.IdealThroughput)
	}
	for iter := 0; iter < 6; iter++ {
		copy(prev, rates)
		// Aggregate per-dataset streams at the current rate estimates.
		for i := range streams {
			streams[i] = cache.FluidStream{}
		}
		for i, j := range running {
			st := &streams[idx[i]]
			st.Size = j.spec.Dataset.Size
			st.Rate += unit.Bandwidth(rates[i])
		}
		s.cheHits = cache.CheLRUInto(s.cheHits, s.eff.Cache, streams)
		for i, j := range running {
			h := s.cheHits[idx[i]]
			if s.lruUsers[i] == 1 && j.epochs == 0 {
				h = 0
			}
			hits[i] = h
		}
		grants := s.remoteIOGrants(running, hits, nil)
		for i, j := range running {
			rates[i] = float64(j.throughputAt(grants[i], hits[i]))
		}
		// Exact convergence: each iteration is a deterministic function
		// of the rate vector alone, so once an iteration reproduces its
		// own input bit-for-bit, every remaining iteration would rewrite
		// identical streams, hits, grants and rates. Stopping here
		// cannot change any output byte.
		converged := true
		for i := range rates {
			// Bit-pattern comparison, not float equality: the exit fires
			// only when the iteration reproduced its input exactly, which
			// is the one case where skipping the rest provably changes
			// nothing.
			if math.Float64bits(rates[i]) != math.Float64bits(prev[i]) {
				converged = false
				break
			}
		}
		if converged && !s.cfg.FullResolve {
			// Full-resolve mode keeps the historical 6-iteration loop so
			// the reference trajectory is the unoptimized one.
			break
		}
	}
}

// sample records the timeline metrics at the current time.
func (s *fluidSim) sample(running []*jobRT, hits []float64, rates []unit.Bandwidth, force bool) {
	if !force && s.now.Sub(s.lastSample) < s.cfg.MetricsInterval {
		return
	}
	s.lastSample = s.now
	t := s.now.Minutes()
	var tput, ideal, rio float64
	for i, j := range running {
		tput += rates[i].MBpsValue()
		ideal += j.profile.IdealThroughput.MBpsValue()
		rio += rates[i].MBpsValue() * (1 - hits[i])
	}
	s.series["throughput"].Append(t, tput)
	s.series["ideal"].Append(t, ideal)
	s.series["remoteio"].Append(t, rio)
	s.met.utilization(running, rio, s.eff.RemoteIO)
	// The fairness objective (Eq. 8) is evaluated on realized
	// throughput: the performance jobs actually experience under the
	// current allocation, warm-up effects included — plans that flatter
	// cold caches earn no credit.
	realized := s.realizedBuf
	clear(realized)
	for i, j := range running {
		realized[j.spec.ID] = rates[i]
	}
	s.series["fairness"].Append(t, fairnessRatio(s.eff, running, func(j *jobRT) unit.Bandwidth {
		return realized[j.spec.ID]
	}))
	var alloc, eff float64
	if !s.cfg.System.UsesLRU() {
		// Effective bytes per dataset: mean of its active jobs'
		// effective snapshots (cached but not-yet-effective blocks are
		// the gap, §6 / Figure 8).
		effSum, effCnt := s.effSum, s.rankCount
		for _, j := range running {
			effSum[j.ds] += float64(j.effCached)
			effCnt[j.ds]++
		}
		// Sorted-key (rank) order: both sums land in recorded series,
		// where a map-order-dependent float total would break same-seed
		// byte-identity.
		for r := range s.datasets {
			d := &s.datasets[r]
			if !d.live {
				continue
			}
			alloc += float64(d.quota)
			if n := effCnt[r]; n > 0 {
				eff += effSum[r] / float64(n)
			} else {
				eff += float64(d.cached)
			}
		}
		for _, j := range running {
			effSum[j.ds], effCnt[j.ds] = 0, 0
		}
	}
	s.series["cache_alloc"].Append(t, alloc/float64(unit.GB))
	s.series["cache_effective"].Append(t, eff/float64(unit.GB))
}

// loop is the main fluid integration loop.
func (s *fluidSim) loop() error {
	totalJobs := len(s.jobs)
	for s.finished < totalJobs {
		if s.now.Elapsed() > maxSimTime {
			return fmt.Errorf("sim: exceeded max simulated time %v with %d/%d jobs finished",
				maxSimTime, s.finished, totalJobs)
		}
		// Decision point: land due faults, then (re)schedule against
		// whatever capacity survives.
		s.res.Events += s.drainFaults(s.now, s)
		if err := s.reschedule(); err != nil {
			return err
		}
		s.res.Events++
		// Determine the next decision point.
		horizon := s.now.Add(s.cfg.ReschedInterval)
		if at, ok := s.inj.NextAt(); ok && at < horizon {
			horizon = at
		}
		for s.nextArrive < totalJobs && s.jobs[s.nextArrive].spec.Submit <= s.now {
			s.nextArrive++
		}
		if s.nextArrive < totalJobs {
			if at := s.jobs[s.nextArrive].spec.Submit; at < horizon {
				horizon = at
			}
		}
		// Integrate until the horizon, handling completions and epoch
		// boundaries as they occur.
		for s.now < horizon {
			running := s.runningJobs()
			hits, rates := s.jobRates(running)
			s.sample(running, hits, rates, false)
			if len(running) == 0 {
				s.now = horizon
				break
			}
			// Earliest internal event under constant rates.
			dt := float64(horizon.Sub(s.now))
			for i, j := range running {
				r := float64(rates[i])
				if r <= 0 {
					continue
				}
				if d := float64(j.remaining) / r; d < dt {
					dt = d
				}
				// Epoch boundaries matter to every system: quota caches
				// become effective there, LRU counts them for warm-up.
				if d := float64(j.epochLeft) / r; d < dt {
					dt = d
				}
			}
			if dt <= 0 {
				dt = 1e-6
			}
			// Hoard-style prefetch: idle egress fills funded datasets
			// with no running reader (their future jobs start warm).
			prefetch := s.prefetchBuf[:0]
			var prefRate float64
			if s.cfg.EnablePrefetch && !s.cfg.System.UsesLRU() {
				var used float64
				for i := range running {
					used += float64(rates[i]) * (1 - hits[i])
				}
				leftover := float64(s.eff.RemoteIO) - used
				if leftover > 1e-6 {
					for _, j := range running {
						s.rankCount[j.ds]++
					}
					for r := range s.datasets {
						d := &s.datasets[r]
						if d.live && s.rankCount[r] == 0 && d.cached < minBytes(d.quota, d.size) {
							prefetch = append(prefetch, r)
						}
					}
					for _, j := range running {
						s.rankCount[j.ds] = 0
					}
					if len(prefetch) > 0 {
						prefRate = leftover / float64(len(prefetch))
					}
				}
			}
			s.prefetchBuf = prefetch
			// Advance.
			s.now = s.now.Add(unit.Duration(dt))
			for _, r := range prefetch {
				d := &s.datasets[r]
				limit := minBytes(d.quota, d.size)
				fill := unit.Bytes(prefRate * dt)
				d.cached = minBytes(d.cached+fill, limit)
			}
			reschedNow := false
			for i, j := range running {
				adv := unit.Bytes(float64(rates[i]) * dt)
				if adv > j.remaining {
					adv = j.remaining
				}
				j.remaining -= adv
				j.attained += adv
				j.epochLeft -= adv
				hitB := float64(adv) * hits[i]
				s.met.addHitMiss(hitB, float64(adv)-hitB)
				if !s.cfg.System.UsesLRU() {
					// Misses admitted this step fill the cache toward
					// the quota continuously (effectiveness still waits
					// for the epoch boundary).
					d := s.ds(j)
					limit := minBytes(d.quota, j.spec.Dataset.Size)
					if d.cached < limit {
						fill := unit.Bytes(float64(adv) * (1 - hits[i]))
						d.cached = minBytes(d.cached+fill, limit)
					}
				}
				if j.remaining <= subByteResidue {
					s.complete(s.now, j)
					s.dropIfUnused(j)
					reschedNow = true
					continue
				}
				if j.epochLeft <= subByteResidue {
					// Epoch boundary: the pass filled the cache up to
					// quota, and everything cached is now effective.
					s.res.Events++
					j.epochs++
					s.met.tl.RecordAt(float64(s.now), metrics.EventEpoch, j.spec.ID,
						float64(j.epochs), "epochs_completed")
					if !s.cfg.System.UsesLRU() {
						d := s.ds(j)
						fill := minBytes(d.quota, j.spec.Dataset.Size)
						if fill > d.cached {
							d.cached = fill
						}
						j.effCached = minBytes(d.cached, j.spec.Dataset.Size)
						// effCached is a hit-ratio input on the quota path.
						s.rateGen++
					} else if j.epochs == 1 {
						// LRU warm-up: lruHits zeroes hits only while
						// j.epochs is 0, so crossing 0 -> 1 changes a rate
						// input; later boundaries change nothing it reads.
						s.rateGen++
					}
					j.epochLeft = minBytes(j.spec.Dataset.Size, j.remaining)
					j.epochSize = j.epochLeft
				}
			}
			if reschedNow {
				break // completions trigger an immediate scheduling round
			}
		}
	}
	running := s.runningJobs()
	hits, rates := s.jobRates(running)
	s.sample(running, hits, rates, true)
	return nil
}

// dropIfUnused frees the cache key of a job that just finished when no
// unfinished job uses it.
func (s *fluidSim) dropIfUnused(done *jobRT) {
	d := &s.datasets[done.ds]
	if d.pending--; d.pending == 0 {
		d.live, d.quota, d.cached = false, 0, 0
	}
}
