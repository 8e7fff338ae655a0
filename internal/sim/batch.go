package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/eventq"
	"repro/internal/metrics"
	"repro/internal/simrng"
	"repro/internal/unit"
	"repro/internal/workload"
)

// batchJob is the per-job state of the batch engine: a two-stage
// pipeline (data loading, compute) at block granularity, matching the
// paper's Figure 5 execution model. Cache hits cost no loader time (the
// storage fabric sustains local-disk speed, Figure 3), so loader time
// accrues only on remote fetches and the long-run loading rate is
// b/(1-c/d) — the quantity Eq. 3 models.
type batchJob struct {
	rt     *jobRT
	stream dataset.Stream
	blocks dataset.Blocks

	blocksTotal int64 // total blocks to train through
	blocksDone  int64
	// doneAtEpoch is the issued-block count when the current epoch
	// began — the checkpoint a fault-driven rollback rewinds to.
	doneAtEpoch int64
	// effBytes is the cache snapshot at the job's current epoch start:
	// the effective cache (§6) used for demand sizing.
	effBytes unit.Bytes

	// Pipeline state.
	prefetch     int // blocks loaded and awaiting compute
	fetchEvent   *eventq.Event
	fetchLeft    unit.Bytes // bytes left of the in-flight remote fetch
	fetchRateAt  float64    // sim time the in-flight rate was set
	rate         unit.Bandwidth
	computeEvent *eventq.Event
	computing    bool

	issued int64 // blocks issued to the loader so far
	epochs int   // passes started, for timeline epoch events
}

// prefetchDepth is the loader's prefetch queue in blocks. DL data
// loaders prefetch aggressively, which is what lets the closed-form
// model treat loading and compute as a perfectly overlapped pipeline; a
// shallow queue would stall compute during miss bursts and bias
// measured throughput below b/(1-c/d).
const prefetchDepth = 64

// batchSim is the batch engine.
type batchSim struct {
	engine
	q     *eventq.Queue
	pool  cache.Pool
	bjobs map[string]*batchJob
	rng   *simrng.RNG

	// Windowed throughput accounting.
	lastSampleT     float64
	bytesSinceSamp  float64
	remoteSinceSamp float64

	// floorBuf is refreshRates' per-job demand floor (see there).
	floorBuf []float64

	// Event batching: tickEvent is the single armed periodic tick
	// (re-armed, not stacked, by each round) and roundPending coalesces
	// same-instant arrivals/completions/faults into one scheduling
	// round instead of N back-to-back rounds.
	tickEvent    *eventq.Event
	roundPending bool
}

// runBatch executes the batch engine.
func runBatch(cfg Config, specs []workload.JobSpec) (*Result, error) {
	s := &batchSim{
		q:     eventq.New(),
		bjobs: make(map[string]*batchJob),
		rng:   simrng.New(cfg.Seed),
	}
	// The batch engine drives the real pools, so block-level hit/miss/
	// eviction counters come straight from the cache package.
	pm := cache.NewPoolMetrics(cfg.Metrics, cfg.System.String())
	if cfg.System.UsesLRU() {
		lp := cache.NewLRUPool(cfg.Cluster.Cache)
		lp.SetMetrics(pm)
		s.pool = lp
	} else {
		qp := cache.NewQuotaPool(cfg.Cluster.Cache, s.rng.Split("evict"))
		qp.SetMetrics(pm)
		s.pool = qp
	}
	var jobs []*jobRT
	for _, spec := range orderSpecs(specs) {
		blocks, err := dataset.New(spec.Dataset.Name, spec.Dataset.Size, blockSize)
		if err != nil {
			return nil, err
		}
		// Block-align the dataset size so a "cache the whole dataset"
		// quota covers every block; otherwise the final partial block
		// can never be admitted and trickles in remotely every epoch.
		spec.Dataset.Size = unit.Bytes(blocks.Num) * blockSize
		rt := newJobRT(spec, cfg.System)
		jobs = append(jobs, rt)
		if err := s.pool.Register(rt.dsKey, blocks.Num, blockSize); err != nil {
			return nil, err
		}
		var stream dataset.Stream
		srng := s.rng.Split("stream-" + spec.ID)
		if spec.Curriculum != nil {
			cs, err := dataset.NewCurriculumStream(blocks, *spec.Curriculum, srng)
			if err != nil {
				return nil, err
			}
			stream = cs
		} else {
			stream = dataset.NewEpochStream(blocks, srng)
		}
		total := int64(math.Ceil(float64(spec.TotalBytes()) / float64(blockSize)))
		if total < 1 {
			total = 1
		}
		s.bjobs[spec.ID] = &batchJob{rt: rt, stream: stream, blocks: blocks, blocksTotal: total}
		// Arrival event requests a scheduling round; same-instant
		// arrivals coalesce into one round (see requestRound).
		submit := float64(spec.Submit)
		s.q.Schedule(submit, func() { s.requestRound() })
	}
	var err error
	if s.engine, err = newEngine(cfg, jobs); err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		// One queue event per distinct fault time; the injector drains
		// every event due at that instant (FIFO within ties).
		seen := make(map[float64]bool, len(cfg.Faults.Events))
		for _, ev := range cfg.Faults.Events {
			at := float64(ev.At)
			if !seen[at] {
				seen[at] = true
				s.q.Schedule(at, func() { s.onFault() })
			}
		}
	}
	// Periodic rescheduling ticks are (re)armed by reschedule itself.
	total := len(s.jobs)
	maxEvents := 500_000_000
	for s.finished < total {
		if !s.q.Step() {
			return nil, fmt.Errorf("sim(batch): event queue drained with %d/%d jobs finished", s.finished, total)
		}
		s.res.Events++
		if s.res.Events > maxEvents {
			return nil, fmt.Errorf("sim(batch): event guard tripped at %d events", s.res.Events)
		}
		if unit.Duration(s.q.Now()) > maxSimTime {
			return nil, fmt.Errorf("sim(batch): exceeded max simulated time with %d/%d jobs; stuck: %s",
				s.finished, total, s.describeStuck())
		}
	}
	s.sample(true)
	return s.finish(unit.Time(s.q.Now())), nil
}

// describeStuck reports the pipeline state of unfinished jobs, for the
// runaway-simulation diagnostic.
func (s *batchSim) describeStuck() string {
	out := ""
	for _, j := range s.jobs {
		if j.done {
			continue
		}
		bj := s.bjobs[j.spec.ID]
		out += fmt.Sprintf("[%s running=%v gpus=%d done=%d/%d prefetch=%d computing=%v fetch=%v rate=%v left=%v] ",
			j.spec.ID, j.running, j.gpus, bj.blocksDone, bj.blocksTotal, bj.prefetch,
			bj.computing, bj.fetchEvent != nil, bj.rate, bj.fetchLeft)
	}
	return out
}

// reschedule runs the policy, applies quotas and rates, and re-arms the
// periodic tick.
func (s *batchSim) reschedule() {
	now := unit.Time(s.q.Now())
	act := s.active(now)
	views := resize(&s.viewsBuf, len(act))
	for i, j := range act {
		views[i] = j.view()
		// Effective cache is the per-job epoch-start snapshot (§6):
		// blocks admitted mid-epoch are not re-read until the next
		// pass, so demand sizing must ignore them. CachedBytes is the
		// live pool content, used for placement hysteresis.
		cached := s.pool.CachedBytes(j.dsKey)
		if cached > j.spec.Dataset.Size {
			cached = j.spec.Dataset.Size
		}
		eff := s.bjobs[j.spec.ID].effBytes
		if eff > cached {
			eff = cached
		}
		views[i].EffectiveCached = eff
		views[i].CachedBytes = cached
	}
	// Solve and validate against the *effective* capacity so a
	// post-fault re-solve cannot over-grant GPUs, cache, or bandwidth.
	a, _, err := s.round.Solve(s.eff, now, views)
	if err != nil {
		panic(fmt.Sprintf("sim(batch): invalid assignment at t=%v from %s: %v", now, s.cfg.Policy.Name(), err))
	}
	// Apply cache quotas and IO allocations BEFORE (re)starting any
	// pipeline: a newly kicked job issues its first block access
	// immediately, and with quotas still unset that block would be
	// rejected from the cache and paid for again next epoch.
	s.met.reschedules.Inc()
	if qp, ok := s.pool.(*cache.QuotaPool); ok {
		// Sorted key order: quota changes land on the event timeline,
		// and map-iteration order would leak into the dump.
		keys := s.keysBuf[:0]
		for key := range a.CacheQuota {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		s.keysBuf = keys
		for _, key := range keys {
			q := a.CacheQuota[key]
			if q.Changed(qp.Quota(key)) {
				s.met.tl.RecordAt(s.q.Now(), metrics.EventCacheAlloc, key, float64(q), "quota_bytes")
			}
			if err := qp.SetQuota(key, q); err != nil {
				panic(fmt.Sprintf("sim(batch): %v", err))
			}
		}
		for _, key := range qp.Keys() {
			if _, ok := a.CacheQuota[key]; !ok {
				if err := qp.SetQuota(key, 0); err != nil {
					panic(fmt.Sprintf("sim(batch): %v", err))
				}
			}
		}
	}
	s.applyRemoteIO(now, act, a)
	for _, j := range act {
		started, stopped := s.grantGPUs(now, j, a.GPUs[j.spec.ID])
		if started {
			s.kick(s.bjobs[j.spec.ID])
		}
		if stopped {
			s.halt(j, s.faultPreempt)
		}
	}
	s.faultPreempt = false
	s.refreshRates()
	s.sample(false)
	// Re-arm the single periodic tick. Cancelling the old one keeps
	// exactly one tick pending no matter how many event-driven rounds
	// ran in between; previously every round stacked a fresh tick, so a
	// burst of completions left a storm of near-simultaneous ticks each
	// driving a full round.
	s.q.Cancel(s.tickEvent)
	s.tickEvent = s.q.After(float64(s.cfg.ReschedInterval), func() { s.requestRound() })
}

// requestRound schedules at most one scheduling round at the current
// instant. Arrivals, completions and faults that land at the same
// simulated time all call this; the first call enqueues the round
// behind the remaining same-instant events (the queue is FIFO within a
// timestamp), so the policy solves once against the settled state
// instead of once per event.
func (s *batchSim) requestRound() {
	if s.roundPending {
		return
	}
	s.roundPending = true
	s.q.Schedule(s.q.Now(), func() {
		s.roundPending = false
		s.reschedule()
	})
}

// onFault lands the faults due now, then runs a scheduling round
// against the degraded (or recovered) capacity.
func (s *batchSim) onFault() {
	if s.drainFaults(unit.Time(s.q.Now()), s) > 0 {
		s.requestRound()
	}
}

// cacheResized implements faultReactor: invalidate the lost fraction of
// the pool's blocks, then resize so admissions respect the surviving
// (or restored) nodes. Hit ratios re-derive from the pool on the next
// access.
func (s *batchSim) cacheResized(before unit.Bytes) {
	if s.eff.Cache < before {
		s.pool.EvictFraction(1 - float64(s.eff.Cache)/float64(before))
	}
	s.pool.Resize(s.eff.Cache)
}

// halt implements faultReactor.
func (s *batchSim) halt(j *jobRT, lostEpoch bool) {
	bj := s.bjobs[j.spec.ID]
	s.pause(bj)
	if lostEpoch {
		s.rollback(bj)
	}
}

// rollback discards the current epoch's partial progress: the pipeline
// is drained, blocksDone rewinds to the epoch-start checkpoint, and the
// stream replays the epoch with a fresh shuffle (a restarted loader
// draws a new permutation). Curriculum jobs have no epoch concept and
// resume at their current pacing position — nothing to roll back.
func (s *batchSim) rollback(bj *batchJob) {
	es, ok := bj.stream.(*dataset.EpochStream)
	if !ok {
		return
	}
	if bj.fetchEvent != nil {
		s.q.Cancel(bj.fetchEvent)
		bj.fetchEvent = nil
		bj.fetchLeft = 0
	}
	if bj.computeEvent != nil {
		s.q.Cancel(bj.computeEvent)
		bj.computeEvent = nil
		bj.computing = false
	}
	bj.prefetch = 0
	es.RestartEpoch()
	bj.blocksDone = bj.doneAtEpoch
	bj.issued = bj.doneAtEpoch
	trained := unit.Bytes(bj.blocksDone) * blockSize
	total := bj.rt.spec.TotalBytes()
	if trained > total {
		trained = total
	}
	bj.rt.remaining = total - trained
	bj.rt.attained = trained
}

// observedHit estimates a running job's hit ratio from its effective
// cache — the epoch-start snapshot, since blocks admitted this epoch
// serve no reads until the next pass (used for bandwidth division).
func (s *batchSim) observedHit(j *jobRT) float64 {
	d := float64(j.spec.Dataset.Size)
	if d <= 0 {
		return 0
	}
	eff := s.bjobs[j.spec.ID].effBytes
	if c := s.pool.CachedBytes(j.dsKey); c < eff {
		eff = c
	}
	return math.Min(float64(eff)/d, 1)
}

// refreshRates recomputes every running job's remote fetch rate and
// adjusts in-flight fetches.
func (s *batchSim) refreshRates() {
	running := s.runningJobs()
	hits := resize(&s.hitsBuf, len(running))
	floor := resize(&s.floorBuf, len(running))
	for i, j := range running {
		hits[i] = s.observedHit(j)
		// An in-flight transfer is instantaneous demand regardless of
		// the analytic miss ratio (the pool already counts the block as
		// admitted): give it enough bandwidth to land within a round,
		// or a fully-warmed job's final straggler block never arrives.
		floor[i] = float64(s.bjobs[j.spec.ID].fetchLeft) / float64(s.cfg.ReschedInterval)
	}
	grants := s.remoteIOGrants(running, hits, floor)
	for i, j := range running {
		s.setFetchRate(s.bjobs[j.spec.ID], grants[i])
	}
}

// setFetchRate updates a job's remote rate, rescheduling any in-flight
// fetch completion for the new rate.
func (s *batchSim) setFetchRate(bj *batchJob, rate unit.Bandwidth) {
	if bj.fetchEvent != nil && !bj.fetchEvent.Cancelled() {
		// Account progress at the old rate, then re-time the remainder.
		elapsed := s.q.Now() - bj.fetchRateAt
		progressed := unit.Bytes(float64(bj.rate) * elapsed)
		if progressed > bj.fetchLeft {
			progressed = bj.fetchLeft
		}
		bj.fetchLeft -= progressed
		s.remoteSinceSamp += float64(progressed)
		s.q.Cancel(bj.fetchEvent)
		bj.fetchEvent = nil
		bj.rate = rate
		bj.fetchRateAt = s.q.Now()
		s.scheduleFetchCompletion(bj)
		return
	}
	bj.rate = rate
}

// scheduleFetchCompletion arms the completion event for the in-flight
// fetch at the current rate.
func (s *batchSim) scheduleFetchCompletion(bj *batchJob) {
	var dur float64
	if bj.fetchLeft <= 0 {
		// The transfer finished during a rate change's progress
		// accounting; deliver it now.
		bj.fetchEvent = s.q.After(0, func() { s.fetchDone(bj) })
		return
	}
	if bj.rate <= 0 {
		// Stalled: re-check at the next rescheduling round; arm a long
		// placeholder the next rate change cancels.
		dur = float64(s.cfg.ReschedInterval)
		bj.fetchEvent = s.q.After(dur, func() {
			bj.fetchEvent = nil
			if bj.rt.running {
				s.scheduleFetchCompletion(bj)
			}
		})
		return
	}
	dur = float64(unit.DivBandwidth(bj.fetchLeft, bj.rate))
	bj.fetchRateAt = s.q.Now()
	bj.fetchEvent = s.q.After(dur, func() { s.fetchDone(bj) })
}

// kick (re)starts a paused or newly admitted job's pipeline.
func (s *batchSim) kick(bj *batchJob) {
	s.fillLoader(bj)
	s.maybeCompute(bj)
}

// pause stops a preempted job's pipeline. The in-flight fetch is
// abandoned (its partial progress is lost, as in a real preemption).
func (s *batchSim) pause(bj *batchJob) {
	if bj.fetchEvent != nil {
		s.q.Cancel(bj.fetchEvent)
		bj.fetchEvent = nil
		bj.fetchLeft = 0
		bj.issued-- // the block will be re-issued on resume
	}
	if bj.computeEvent != nil {
		s.q.Cancel(bj.computeEvent)
		bj.computeEvent = nil
		bj.computing = false
		bj.prefetch++ // the block returns to the prefetch queue
	}
}

// fillLoader issues block reads until the prefetch queue is full or a
// remote fetch is in flight. Cache hits complete immediately (local
// fabric speed is not the bottleneck, Figure 3), so only misses consume
// loader time.
func (s *batchSim) fillLoader(bj *batchJob) {
	if !bj.rt.running || bj.rt.done {
		return
	}
	for bj.fetchEvent == nil && bj.prefetch < prefetchDepth && bj.issued < bj.blocksTotal {
		blk, newEpoch := bj.stream.Next()
		if newEpoch {
			bj.effBytes = s.pool.CachedBytes(bj.rt.dsKey)
			bj.doneAtEpoch = bj.issued
			bj.epochs++
			s.met.tl.RecordAt(s.q.Now(), metrics.EventEpoch, bj.rt.spec.ID,
				float64(bj.epochs), "epochs_started")
		}
		bj.issued++
		out, err := s.pool.Access(bj.rt.dsKey, cache.BlockID(blk))
		if err != nil {
			panic(fmt.Sprintf("sim(batch): %v", err))
		}
		if out.Hit {
			bj.prefetch++
			s.met.addHitMiss(float64(blockSize), 0)
			continue
		}
		// Remote fetch.
		s.met.addHitMiss(0, float64(blockSize))
		bj.fetchLeft = blockSize
		s.scheduleFetchCompletion(bj)
	}
	s.maybeCompute(bj)
}

// fetchDone completes an in-flight remote fetch.
func (s *batchSim) fetchDone(bj *batchJob) {
	s.remoteSinceSamp += float64(bj.fetchLeft)
	bj.fetchLeft = 0
	bj.fetchEvent = nil
	bj.prefetch++
	s.fillLoader(bj)
}

// maybeCompute starts computing the next block if the GPU is idle.
func (s *batchSim) maybeCompute(bj *batchJob) {
	if bj.computing || bj.prefetch == 0 || !bj.rt.running || bj.rt.done {
		return
	}
	bj.prefetch--
	bj.computing = true
	dur := float64(unit.DivBandwidth(blockSize, bj.rt.profile.IdealThroughput))
	bj.computeEvent = s.q.After(dur, func() { s.computeDone(bj) })
}

// computeDone completes a block of training.
func (s *batchSim) computeDone(bj *batchJob) {
	bj.computing = false
	bj.computeEvent = nil
	bj.blocksDone++
	adv := blockSize
	if adv > bj.rt.remaining {
		adv = bj.rt.remaining
	}
	bj.rt.remaining -= adv
	bj.rt.attained += adv
	s.bytesSinceSamp += float64(adv)
	if bj.blocksDone >= bj.blocksTotal {
		s.complete(unit.Time(s.q.Now()), bj.rt)
		if bj.fetchEvent != nil {
			s.q.Cancel(bj.fetchEvent)
			bj.fetchEvent = nil
		}
		s.maybeDropDataset(bj.rt)
		s.requestRound()
		return
	}
	s.fillLoader(bj)
	s.maybeCompute(bj)
}

// maybeDropDataset frees the cache key when no unfinished job uses it.
func (s *batchSim) maybeDropDataset(done *jobRT) {
	for _, j := range s.jobs {
		if !j.done && j.dsKey == done.dsKey {
			return
		}
	}
	switch p := s.pool.(type) {
	case *cache.QuotaPool:
		p.DropKey(done.dsKey)
	case *cache.LRUPool:
		p.DropKey(done.dsKey)
	}
}

// sample records timeline metrics using windowed byte counters.
func (s *batchSim) sample(force bool) {
	now := s.q.Now()
	dt := now - s.lastSampleT
	if !force && dt < float64(s.cfg.MetricsInterval) {
		return
	}
	if dt <= 0 {
		dt = 1
	}
	t := unit.Time(now).Minutes()
	tput := s.bytesSinceSamp / dt / float64(unit.MB)
	rio := s.remoteSinceSamp / dt / float64(unit.MB)
	s.bytesSinceSamp, s.remoteSinceSamp = 0, 0
	s.lastSampleT = now

	running := s.runningJobs()
	var ideal float64
	for _, j := range running {
		ideal += j.profile.IdealThroughput.MBpsValue()
	}
	s.series["throughput"].Append(t, tput)
	s.series["ideal"].Append(t, ideal)
	s.series["remoteio"].Append(t, rio)
	s.met.utilization(running, rio, s.eff.RemoteIO)
	s.series["fairness"].Append(t, fairnessRatio(s.eff, running, func(j *jobRT) unit.Bandwidth {
		// Instantaneous estimate from pool state and current rate.
		return j.throughputAt(s.bjobs[j.spec.ID].rate, s.observedHit(j))
	}))
	var alloc float64
	if qp, ok := s.pool.(*cache.QuotaPool); ok {
		for _, key := range qp.Keys() {
			alloc += float64(qp.Quota(key))
		}
	} else {
		alloc = float64(s.pool.TotalCachedBytes())
	}
	s.series["cache_alloc"].Append(t, alloc/float64(unit.GB))
	s.series["cache_effective"].Append(t, float64(s.pool.TotalCachedBytes())/float64(unit.GB))
}
