// Package testbed is the concurrent cluster emulator used for fidelity
// validation (the analogue of the paper's accelerated-K80 methodology,
// §7.1): every training job runs as a real loader+compute goroutine
// pipeline against the real data manager — cache pool, per-job token
// buckets, allocation APIs — with GPU compute replaced by scaled
// sleeps, exactly as the paper replaces forward/backward passes with
// sleep() for the profiled duration.
//
// Simulated time runs TimeScale times faster than wall time: all sleeps
// are divided by TimeScale and all token-bucket rates multiplied by it,
// so a 3,500-simulated-minute micro-benchmark completes in seconds of
// wall time while preserving every rate relationship.
package testbed

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datamgr"
	"repro/internal/dataset"
	"repro/internal/estimator"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/remoteio"
	"repro/internal/simrng"
	"repro/internal/unit"
	"repro/internal/workload"
)

// Config parameterizes a testbed run.
type Config struct {
	Cluster core.Cluster
	Policy  core.Policy
	System  policy.CacheSystem
	// TimeScale is simulated seconds per wall-clock second (e.g. 10000
	// compresses a ~3-day run into ~25 s).
	TimeScale float64
	// BlockSize is the cache/IO granularity; testbed runs use coarser
	// blocks than the simulator so per-block sleeps stay well above
	// timer resolution.
	BlockSize unit.Bytes
	// ReschedInterval is the scheduling period in simulated time.
	ReschedInterval unit.Duration
	Seed            int64
	// MaxWall bounds the wall-clock duration of the run.
	MaxWall time.Duration
	// Faults, when non-nil, is a deterministic fault schedule applied to
	// the live data manager mid-run: cache-capacity loss/restoration
	// (pool contents invalidated under the jobs' feet) and remote-IO
	// degradation/restoration (ledger and token buckets re-throttled).
	// Faults land at the scheduling round whose simulated time first
	// reaches the event time. GPU and job-crash kinds are rejected: the
	// testbed has no preemption model (once started, a job runs to
	// finish), so those belong to the simulator.
	Faults *faults.Schedule
	// Metrics, when non-nil, instruments the run: the data manager's
	// cache/remote-IO counters plus testbed round and JCT metrics.
	Metrics *metrics.Registry
	// Timeline, when non-nil, records per-job events stamped with
	// simulated (scaled) time, comparable to simulator timelines.
	Timeline *metrics.Timeline
}

// JobResult is one job's outcome in simulated time.
type JobResult struct {
	ID     string
	Finish unit.Time
}

// Result aggregates a run.
type Result struct {
	Jobs     []JobResult
	Makespan unit.Duration
}

// AvgJCT is the mean completion time (all testbed jobs submit at t=0).
func (r *Result) AvgJCT() unit.Duration {
	if len(r.Jobs) == 0 {
		return 0
	}
	var s float64
	for _, j := range r.Jobs {
		s += float64(j.Finish)
	}
	return unit.Duration(s / float64(len(r.Jobs)))
}

// jobRun is the per-job concurrent state.
type jobRun struct {
	spec    workload.JobSpec
	profile estimator.JobProfile
	stream  *dataset.EpochStream

	mu        sync.Mutex
	remaining int64     // guarded by mu (blocks left)
	total     int64     // immutable after construction
	running   bool      // guarded by mu
	finished  bool      // guarded by mu
	finishAt  time.Time // guarded by mu
}

// Run executes the trace on the testbed. All jobs must fit the cluster
// simultaneously (the testbed emulates the §7.1.1 micro-benchmark
// setting; queueing experiments belong to the simulator).
//
// The testbed is the one component that intentionally runs against the
// real clock: it emulates wall-time execution scaled by TimeScale, so
// the wall-clock reads below are the audited boundary where real time
// enters, not a determinism leak.
func Run(cfg Config, specs []workload.JobSpec) (*Result, error) {
	if cfg.TimeScale <= 0 {
		return nil, fmt.Errorf("testbed: non-positive time scale %v", cfg.TimeScale)
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = unit.GiB(4)
	}
	if cfg.ReschedInterval <= 0 {
		cfg.ReschedInterval = 10 * unit.Minute
	}
	if cfg.MaxWall <= 0 {
		cfg.MaxWall = 2 * time.Minute
	}
	var gpus int
	for _, s := range specs {
		gpus += s.NumGPUs
	}
	if gpus > cfg.Cluster.GPUs {
		return nil, fmt.Errorf("testbed: trace needs %d GPUs, cluster has %d", gpus, cfg.Cluster.GPUs)
	}
	if cfg.Faults != nil {
		for i, ev := range cfg.Faults.Events {
			switch ev.Kind {
			case faults.KindCacheLoss, faults.KindCacheRestore, faults.KindIOLoss, faults.KindIORestore:
			default:
				return nil, fmt.Errorf("testbed: fault event %d: kind %s is not supported (no preemption model); use the simulator", i, ev.Kind)
			}
		}
	}
	tb, err := newBed(cfg, specs)
	if err != nil {
		return nil, err
	}
	jobs, start := tb.jobs, tb.start
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Scheduler goroutine: periodic allocation rounds.
	for _, j := range jobs { // all testbed jobs submit at t=0
		tb.met.tl.RecordAt(0, metrics.EventSubmit, j.spec.ID, float64(j.spec.NumGPUs), "gpus_requested")
	}
	if err := tb.round(); err != nil { // initial allocation before jobs start
		return nil, err
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		period := time.Duration(float64(cfg.ReschedInterval) / cfg.TimeScale * float64(time.Second))
		if period < time.Millisecond {
			period = time.Millisecond
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := tb.round(); err != nil {
					tb.fail(err)
					return
				}
			}
		}
	}()

	// Job pipelines.
	done := make(chan *jobRun, len(jobs))
	for _, j := range jobs {
		wg.Add(1)
		go func(j *jobRun) {
			defer wg.Done()
			tb.runJob(j, stop)
			done <- j
		}(j)
	}

	// Wait with a wall-clock bound, aborting early on the first fatal
	// error any goroutine records.
	deadline := time.After(cfg.MaxWall)
	finished := 0
	var timeout, failed bool
	for finished < len(jobs) && !timeout && !failed {
		select {
		case <-done:
			finished++
		case <-tb.failc:
			failed = true
		case <-deadline:
			timeout = true
		}
	}
	close(stop)
	wg.Wait()
	// The round goroutine has exited, so the injector is safe to close
	// out from here; this finalizes the degraded-time accounting.
	tb.inj.Finish(unit.Time(time.Since(start).Seconds() * cfg.TimeScale))
	if err := tb.firstErr(); err != nil {
		return nil, err
	}
	if timeout {
		return nil, fmt.Errorf("testbed: wall-clock bound %v exceeded with %d/%d jobs finished",
			cfg.MaxWall, finished, len(jobs))
	}

	res := &Result{}
	var makespan unit.Duration
	for _, j := range jobs {
		j.mu.Lock()
		finishAt := j.finishAt
		j.mu.Unlock()
		simFinish := unit.Time(finishAt.Sub(start).Seconds() * cfg.TimeScale)
		res.Jobs = append(res.Jobs, JobResult{ID: j.spec.ID, Finish: simFinish})
		if d := simFinish.Elapsed(); d > makespan {
			makespan = d
		}
	}
	sort.Slice(res.Jobs, func(i, j int) bool { return res.Jobs[i].ID < res.Jobs[j].ID })
	res.Makespan = makespan
	return res, nil
}

// newBed builds a run's scheduler-side state from a Config whose
// defaults are filled in: a data manager with every dataset registered
// and every job attached, the per-job pipeline state, the fault
// injector and the round driver.
func newBed(cfg Config, specs []workload.JobSpec) (*bed, error) {
	inj, err := faults.NewInjector(cfg.Cluster, cfg.Faults, cfg.Metrics, cfg.Timeline)
	if err != nil {
		return nil, err
	}

	mgr := datamgr.New(cfg.Cluster.Cache, unit.Bandwidth(float64(cfg.Cluster.RemoteIO)*cfg.TimeScale), cfg.Seed, nil)
	mgr.EnableMetrics(cfg.Metrics)
	rng := simrng.New(cfg.Seed)
	jobs := make([]*jobRun, 0, len(specs))
	for _, spec := range specs {
		blocks, err := dataset.New(spec.Dataset.Name, spec.Dataset.Size, cfg.BlockSize)
		if err != nil {
			return nil, err
		}
		// Block-align the dataset so full-dataset quotas cover every
		// block (same rationale as the batch simulator).
		spec.Dataset.Size = unit.Bytes(blocks.Num) * cfg.BlockSize
		key := spec.Dataset.Name
		if cfg.System.PrivateCaches() {
			key = policy.CoorDLKey(spec.ID)
		}
		if err := mgr.RegisterDataset(key, spec.Dataset.Size, cfg.BlockSize); err != nil {
			return nil, err
		}
		if err := mgr.AttachJob(spec.ID, key); err != nil {
			return nil, err
		}
		total := int64((float64(spec.TotalBytes()) + float64(cfg.BlockSize) - 1) / float64(cfg.BlockSize))
		if total < 1 {
			total = 1
		}
		jobs = append(jobs, &jobRun{
			spec: spec,
			profile: estimator.JobProfile{
				IdealThroughput: spec.IdealThroughput(),
				DatasetSize:     spec.Dataset.Size,
			},
			stream:    dataset.NewEpochStream(blocks, rng.Split("stream-"+spec.ID)),
			remaining: total,
			total:     total,
		})
	}
	return &bed{cfg: cfg, mgr: mgr, jobs: jobs, start: time.Now(), met: newBedMetrics(cfg),
		failc: make(chan struct{}), inj: inj, eff: inj.Effective(),
		solve: core.NewRound(cfg.Policy, false)}, nil
}

// bed holds the scheduler-side state.
type bed struct {
	cfg   Config
	mgr   *datamgr.Manager
	jobs  []*jobRun
	start time.Time
	met   bedMetrics

	// inj, eff and solve belong to the scheduler: the initial round runs
	// before the round goroutine starts, and after that only the round
	// goroutine touches them, so rounds see a consistent capacity view
	// while job goroutines hit the (internally locked) manager.
	inj   *faults.Injector
	eff   core.Cluster
	solve *core.Round

	mu    sync.Mutex
	err   error // guarded by mu (first fatal error of the run)
	failc chan struct{}
}

// fail records the run's first fatal error and wakes the waiter; later
// errors (usually knock-on effects of the first) are dropped.
func (b *bed) fail(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err == nil {
		b.err = err
		close(b.failc)
	}
}

// firstErr returns the error recorded by fail, if any.
func (b *bed) firstErr() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// bedMetrics is the testbed's own instrumentation (the data manager
// carries the cache and remote-IO metrics). Zero value no-ops.
type bedMetrics struct {
	tl          *metrics.Timeline
	rounds      *metrics.Counter   // silod_testbed_rounds_total
	completions *metrics.Counter   // silod_testbed_job_completions_total
	jct         *metrics.Histogram // silod_testbed_jct_minutes
}

func newBedMetrics(cfg Config) bedMetrics {
	r := cfg.Metrics // nil-safe
	return bedMetrics{
		tl:          cfg.Timeline,
		rounds:      r.Counter("silod_testbed_rounds_total"),
		completions: r.Counter("silod_testbed_job_completions_total"),
		jct:         r.Histogram("silod_testbed_jct_minutes", metrics.ExpBuckets(1, 2, 14)),
	}
}

// views builds the policy's job views from live counters.
func (b *bed) views() []core.JobView {
	out := make([]core.JobView, 0, len(b.jobs))
	for _, j := range b.jobs {
		j.mu.Lock()
		rem := j.remaining
		fin := j.finished
		run := j.running
		j.mu.Unlock()
		if fin {
			continue
		}
		key := j.spec.Dataset.Name
		if b.cfg.System.PrivateCaches() {
			key = policy.CoorDLKey(j.spec.ID)
		}
		cached := b.mgr.CachedBytes(key)
		if cached > j.spec.Dataset.Size {
			cached = j.spec.Dataset.Size
		}
		// Effective cache is the epoch-start snapshot the data manager
		// tracks (§6) — NOT the live contents: blocks admitted this
		// epoch serve no reads until the next pass, so demand must be
		// sized against the snapshot or warming jobs get starved as
		// their cache fills.
		effective := unit.Bytes(0)
		if st, err := b.mgr.Stats(j.spec.ID); err == nil {
			effective = st.EffectiveCached
			if effective > j.spec.Dataset.Size {
				effective = j.spec.Dataset.Size
			}
		}
		out = append(out, core.JobView{
			ID:              j.spec.ID,
			NumGPUs:         j.spec.NumGPUs,
			Profile:         j.profile,
			DatasetKey:      key,
			DatasetSize:     j.spec.Dataset.Size,
			RemainingBytes:  unit.Bytes(rem) * b.cfg.BlockSize,
			AttainedBytes:   unit.Bytes(j.total-rem) * b.cfg.BlockSize,
			EffectiveCached: effective,
			CachedBytes:     cached,
			Submit:          0,
			Running:         run,
		})
	}
	return out
}

// round runs one allocation round and pushes it into the data manager.
// An allocation the data manager rejects is a protocol violation
// between policy and manager and aborts the run, with one exception:
// job goroutines run beside the round, so a job in this round's views
// may finish and detach itself before its push lands (pushRemoteIO).
func (b *bed) round() error {
	now := unit.Time(time.Since(b.start).Seconds() * b.cfg.TimeScale)
	b.applyFaults(now)
	views := b.views()
	if len(views) == 0 {
		return nil
	}
	b.met.rounds.Inc()
	a, _, err := b.solve.Solve(b.eff, now, views)
	if err != nil {
		return fmt.Errorf("testbed: infeasible assignment: %w", err)
	}
	// Cache quotas.
	mentioned := make(map[string]bool)
	for key, q := range a.CacheQuota {
		mentioned[key] = true
		if err := b.mgr.AllocateCacheSize(key, q); err != nil {
			return fmt.Errorf("testbed: allocate cache for %s: %w", key, err)
		}
	}
	// Remote IO: honor policy allocations, then water-fill the leftover
	// (or everything, when the policy allocated nothing) over residual
	// demand. Not the simulator's throttle (sim.engine.remoteIOGrants):
	// with nothing allocated that one splits egress equally and lets the
	// unused remainder idle, and it has no 2% demand floor.
	wants := make([]float64, len(views))
	grants := make([]float64, len(views))
	ids := make([]string, len(views))
	for k, v := range views {
		miss := 1.0
		if v.DatasetSize > 0 {
			miss = 1 - float64(v.EffectiveCached)/float64(v.DatasetSize)
		}
		want := float64(v.Profile.IdealThroughput) * miss
		// Floor: even a fully-cached job keeps a sliver of remote-IO
		// demand. Its bucket rate must never be zero, because a fault can
		// invalidate cached blocks mid-epoch and a miss against a
		// zero-rate bucket stalls the loader unboundedly instead of
		// degrading gracefully.
		if minWant := float64(v.Profile.IdealThroughput) * 0.02; want < minWant {
			want = minWant
		}
		wants[k], ids[k] = want, v.ID
		if bw := a.RemoteIO[v.ID]; bw > 0 {
			grants[k] = float64(bw)
		}
	}
	var div remoteio.Divider
	div.TopUp(grants, float64(b.eff.RemoteIO), wants, ids)
	// Apply decreases before increases: replacing rates one at a time
	// against a live ledger would otherwise transiently oversubscribe
	// (job A's new high rate lands while job B still holds last round's
	// high rate). Classified against mgr.Stats, not a scheduler-side book
	// like controlplane's: applyFaults rescales the ledger behind the
	// round's back, so only the manager knows what each job holds.
	type update struct {
		id     string
		scaled unit.Bandwidth
	}
	var raises []update
	for k, v := range views {
		scaled := unit.Bandwidth(grants[k] * b.cfg.TimeScale)
		if st, err := b.mgr.Stats(v.ID); err == nil && scaled > st.RemoteIO {
			raises = append(raises, update{v.ID, scaled})
			continue
		}
		if err := b.pushRemoteIO(v.ID, scaled); err != nil {
			return err
		}
	}
	for _, u := range raises {
		if err := b.pushRemoteIO(u.id, u.scaled); err != nil {
			return err
		}
	}
	// GPU starts (no preemption: once started, a job runs to finish).
	for _, j := range b.jobs {
		j.mu.Lock()
		if !j.finished && !j.running && a.GPUs[j.spec.ID] > 0 {
			j.running = true
			b.met.tl.RecordAt(float64(now), metrics.EventSchedule, j.spec.ID,
				float64(a.GPUs[j.spec.ID]), "gpus")
		}
		j.mu.Unlock()
	}
	return nil
}

// pushRemoteIO sets one job's remote-IO rate. The manager rejects the
// ID of a job that finished after the round took its views: runJob
// marks the job finished, then detaches it. That push is moot, not a
// protocol violation, so it is dropped; any other rejection is an error.
func (b *bed) pushRemoteIO(id string, bw unit.Bandwidth) error {
	err := b.mgr.AllocateRemoteIO(id, bw)
	if err == nil {
		return nil
	}
	for _, j := range b.jobs {
		if j.spec.ID != id {
			continue
		}
		j.mu.Lock()
		finished := j.finished
		j.mu.Unlock()
		if finished {
			return nil
		}
		break
	}
	return fmt.Errorf("testbed: allocate remote IO for %s: %w", id, err)
}

// applyFaults drains fault events due by now and applies them to the
// live data manager: cache losses invalidate the lost fraction of pool
// contents and shrink capacity (jobs keep running; subsequent reads miss
// and fall back to throttled remote IO); remote-IO events resize the
// ledger, re-throttling token buckets mid-stream. Only round() calls
// this, so b.eff is read and written without locking.
func (b *bed) applyFaults(now unit.Time) {
	for {
		before := b.eff
		ev, ok := b.inj.Next(now)
		if !ok {
			return
		}
		b.eff = b.inj.Effective()
		switch ev.Kind {
		case faults.KindCacheLoss:
			frac := 0.0
			if before.Cache > 0 {
				frac = 1 - float64(b.eff.Cache)/float64(before.Cache)
			}
			b.mgr.ResizeCache(b.eff.Cache, frac)
		case faults.KindCacheRestore:
			b.mgr.ResizeCache(b.eff.Cache, 0)
		case faults.KindIOLoss, faults.KindIORestore:
			// Ledger rates are stored TimeScale-scaled (simulated bytes
			// per wall second), so the effective capacity is scaled the
			// same way before resizing.
			b.mgr.ResizeEgress(unit.Bandwidth(float64(b.eff.RemoteIO) * b.cfg.TimeScale))
		default:
			// Unreachable: Run rejects GPU and job-crash kinds up front
			// (the testbed has no preemption model).
		}
	}
}

// runJob drives one job's loader+compute pipeline: the loader goroutine
// reads blocks through the data manager (sleeping out throttle delays
// on misses) into a bounded channel; the compute loop sleeps the scaled
// step time per block, exactly the paper's accelerated-GPU method.
func (b *bed) runJob(j *jobRun, stop <-chan struct{}) {
	// Wait until granted GPUs.
	for {
		j.mu.Lock()
		run := j.running
		j.mu.Unlock()
		if run {
			break
		}
		select {
		case <-stop:
			return
		case <-time.After(time.Millisecond):
		}
	}
	computeWall := time.Duration(float64(unit.DivBandwidth(b.cfg.BlockSize, j.profile.IdealThroughput)) /
		b.cfg.TimeScale * float64(time.Second))
	loaded := make(chan struct{}, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // loader
		defer wg.Done()
		defer close(loaded)
		for i := int64(0); i < j.total; i++ {
			blk, newEpoch := j.stream.Next()
			if newEpoch {
				if err := b.mgr.EpochStart(j.spec.ID); err != nil {
					b.fail(fmt.Errorf("testbed: epoch start for %s: %w", j.spec.ID, err))
					return
				}
			}
			res, err := b.mgr.Read(j.spec.ID, blk)
			if err != nil {
				b.fail(fmt.Errorf("testbed: read for %s: %w", j.spec.ID, err))
				return
			}
			if res.Wait > 0 {
				select {
				case <-stop:
					return
				case <-time.After(res.Wait):
				}
			}
			select {
			case <-stop:
				return
			case loaded <- struct{}{}:
			}
		}
	}()
	// Compute loop.
	for range loaded {
		select {
		case <-stop:
			wg.Wait()
			return
		case <-time.After(computeWall):
		}
		j.mu.Lock()
		j.remaining--
		rem := j.remaining
		j.mu.Unlock()
		if rem <= 0 {
			break
		}
	}
	if b.firstErr() != nil {
		// The loader aborted: the job did not finish, and the waiter is
		// already unblocking via failc.
		wg.Wait()
		return
	}
	j.mu.Lock()
	j.finished = true
	j.running = false
	j.finishAt = time.Now()
	finish := j.finishAt
	j.mu.Unlock()
	simFinish := finish.Sub(b.start).Seconds() * b.cfg.TimeScale
	b.met.completions.Inc()
	b.met.jct.Observe(unit.Duration(simFinish).Minutes())
	b.met.tl.RecordAt(simFinish, metrics.EventComplete, j.spec.ID, simFinish, "jct_seconds")
	b.mgr.DetachJob(j.spec.ID)
	wg.Wait()
}
