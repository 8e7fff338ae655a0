package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/simrng"
	"repro/internal/stats"
	"repro/internal/unit"
)

// cpShape sizes a cp-* workload: the hollow-node shape of
// internal/hollow (which has no seams to time through, so the driver is
// rebuilt here), FIFO x SiloD on a virtual clock.
type cpShape struct {
	name         string
	nodes        int
	gpusPerNode  int
	cachePerNode unit.Bytes
	datasets     int
	arrivals     int // Submits per round; a job is done after jobRounds reports
	jobRounds    int
	resident     int // jobs submitted during set-up that never complete
	warmup       int // rounds before the first measured one
}

// churnShape: 2000 arrivals and 2000 completions per round against
// ~22 000 active jobs; 12 warm-up rounds make the active set stationary.
func churnShape() cpShape {
	return cpShape{name: "cp-churn", nodes: 4000, gpusPerNode: 4, cachePerNode: unit.GiB(512),
		datasets: 512, arrivals: 2000, jobRounds: 12, warmup: 12}
}

// steadyShape: 24 000 resident jobs, no arrivals, no completions.
func steadyShape() cpShape {
	return cpShape{name: "cp-steady", nodes: 4000, gpusPerNode: 4, cachePerNode: unit.GiB(512),
		datasets: 512, resident: 24000, warmup: 5}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, bits uint64) uint64 {
	for shift := 0; shift < 64; shift += 8 {
		h = (h ^ (bits >> shift & 0xff)) * fnvPrime
	}
	return h
}

// sink is the cp-* data plane: every push folds into an FNV-1a digest
// (the identity the traced run must reproduce) and into running totals
// that the per-round capacity check reads. In a traced run it also
// clocks the first and last push of each round, which brackets the
// scheduler's whole push phase.
type sink struct {
	h     uint64
	calls int

	quota     map[string]unit.Bytes
	remote    map[string]unit.Bandwidth
	quotaSum  float64
	remoteSum float64

	timed       bool
	first, last time.Time
	pushes      int // this round
	allPushes   int
	changed     int
}

func newSink() *sink {
	return &sink{h: fnvOffset, quota: make(map[string]unit.Bytes), remote: make(map[string]unit.Bandwidth)}
}

func (s *sink) mix(op byte, name string, bits uint64) {
	h := (s.h ^ uint64(op)) * fnvPrime
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime
	}
	s.h = fnvMix(h, bits)
	s.calls++
}

func (s *sink) digest() string { return fmt.Sprintf("%016x", fnvMix(s.h, uint64(s.calls))) }

// push counts one allocation push. One clock read per push serves as
// both the round's first-push and last-push mark.
func (s *sink) push(differs bool) {
	if s.timed {
		s.last = time.Now()
		if s.pushes == 0 {
			s.first = s.last
		}
	}
	s.pushes++
	s.allPushes++
	if differs {
		s.changed++
	}
}

func (s *sink) RegisterDataset(name string, size, _ unit.Bytes) error {
	s.mix('R', name, math.Float64bits(float64(size)))
	return nil
}

func (s *sink) AttachJob(jobID, dataset string) error {
	s.mix('A', jobID+"/"+dataset, 0)
	return nil
}

// DetachJob is called by the driver, playing the finished job's client
// (as internal/testbed does): the scheduler never zeroes a done job's
// remote IO, so without it the capacity check would count the dead.
func (s *sink) DetachJob(jobID string) error {
	s.mix('D', jobID, 0)
	s.remoteSum -= float64(s.remote[jobID])
	delete(s.remote, jobID)
	return nil
}

func (s *sink) AllocateCacheSize(dataset string, size unit.Bytes) error {
	s.mix('C', dataset, math.Float64bits(float64(size)))
	old := s.quota[dataset]
	s.quota[dataset] = size
	s.quotaSum += float64(size - old)
	s.push(size != old)
	return nil
}

func (s *sink) AllocateRemoteIO(jobID string, speed unit.Bandwidth) error {
	s.mix('I', jobID, math.Float64bits(float64(speed)))
	old := s.remote[jobID]
	s.remote[jobID] = speed
	s.remoteSum += float64(speed - old)
	s.push(speed != old)
	return nil
}

// overCapacity reports the first resource whose booked total exceeds
// the cluster, with the tolerance core.Assignment.ValidateWith allows.
func (s *sink) overCapacity(c core.Cluster) string {
	if s.remoteSum > float64(c.RemoteIO)*(1+1e-9)+1 {
		return fmt.Sprintf("remote IO booked %.0f B/s over egress %.0f B/s", s.remoteSum, float64(c.RemoteIO))
	}
	if s.quotaSum > float64(c.Cache)*(1+1e-9)+1 {
		return fmt.Sprintf("cache quota booked %.0f B over cluster cache %.0f B", s.quotaSum, float64(c.Cache))
	}
	return ""
}

type cpJob struct {
	id      string
	total   unit.Bytes
	reports int
}

// cpDriver plays every node and every job's training loop against a
// real SchedulerServer.
type cpDriver struct {
	sh      cpShape
	cluster core.Cluster
	sched   *controlplane.SchedulerServer
	sink    *sink
	pol     *tracedPolicy
	tr      *tracer // nil during set-up: only measured rounds are traced
	rng     *simrng.RNG
	virtual time.Time
	beats   []controlplane.HeartbeatRequest
	active  []cpJob
	next    int // next job number
	ph      *phase
	submits []controlplane.SubmitJobRequest // this round's arrivals, built before the clock starts

	cal       *calibrator
	ingestS   float64
	ingestOps int
	activeAt  []float64 // active jobs at each measured Schedule
	mallocs   []float64
}

// roundDt is the virtual time between rounds.
const roundDt = 10 * time.Second

func newCPDriver(sh cpShape, seed int64, tr *tracer, ph *phase) (*cpDriver, error) {
	d := &cpDriver{sh: sh, ph: ph, rng: simrng.New(seed), virtual: time.Unix(0, 0), sink: newSink(), cal: newCalibrator()}
	d.cluster = core.Cluster{
		GPUs:     sh.nodes * sh.gpusPerNode,
		Cache:    unit.Bytes(sh.nodes) * sh.cachePerNode,
		RemoteIO: unit.Gbps(float64(sh.nodes)), // 1 Gb/s of fabric per node, as internal/hollow
	}
	buildSpan := tr.begin("policy.build", -1, tr.newTrace())
	bare, err := policy.Build(policy.FIFOKind, policy.SiloD, seed)
	tr.end(buildSpan, 0)
	if err != nil {
		return nil, err
	}
	pol := bare
	if tr != nil {
		d.pol = &tracedPolicy{inner: bare, parent: -1, trace: -1} // its tracer arrives after warm-up
		pol = d.pol
	}
	d.sched, err = controlplane.NewSchedulerServer(d.cluster, pol, d.sink, func() time.Time { return d.virtual })
	if err != nil {
		return nil, err
	}
	d.sched.SetNodeLivenessTimeout(3 * roundDt)
	for i := 0; i < sh.nodes; i++ {
		d.beats = append(d.beats, controlplane.HeartbeatRequest{
			Node: fmt.Sprintf("hollow-%06d", i), GPUs: sh.gpusPerNode, Cache: sh.cachePerNode,
		})
	}
	return d, nil
}

// check counts one control-plane call and records a failed one.
func (d *cpDriver) check(err error, call, id string) {
	d.ph.attempted++
	if err != nil {
		d.ph.failed++
		d.ph.fail("%s %s %s: %v", d.sh.name, call, id, err)
	}
}

func (d *cpDriver) newSubmit() controlplane.SubmitJobRequest {
	req := controlplane.SubmitJobRequest{
		JobID:           fmt.Sprintf("job-%07d", d.next),
		Model:           "ResNet-50",
		Dataset:         fmt.Sprintf("ds-%04d", d.rng.Intn(d.sh.datasets)),
		DatasetSize:     unit.GiB(64),
		NumGPUs:         1 + d.rng.Intn(d.sh.gpusPerNode),
		IdealThroughput: unit.MBpsOf(float64(50 + d.rng.Intn(300))),
		TotalBytes:      unit.GiB(float64(8 + d.rng.Intn(120))),
	}
	d.next++
	return req
}

func (d *cpDriver) submit(req controlplane.SubmitJobRequest) {
	d.check(d.sched.Submit(req), "submit", req.JobID)
	d.active = append(d.active, cpJob{id: req.JobID, total: req.TotalBytes})
}

// cycle is one round as the cluster sees it: arrivals, one progress
// report per active job, one heartbeat per node, then Schedule. It
// returns the host time spent in ingest and in Schedule.
func (d *cpDriver) cycle(measured bool) (ingest, round float64) {
	d.virtual = d.virtual.Add(roundDt)
	d.submits = d.submits[:0]
	for i := 0; i < d.sh.arrivals; i++ {
		d.submits = append(d.submits, d.newSubmit())
	}
	trace := d.tr.newTrace()
	root := d.tr.begin("cp.cycle", -1, trace)

	t0 := time.Now()
	sp := d.tr.begin("controlplane.submit", root, trace)
	for _, req := range d.submits {
		d.submit(req)
	}
	d.tr.end(sp, len(d.submits))

	sp = d.tr.begin("controlplane.progress", root, trace)
	reports := len(d.active)
	keep := d.active[:0]
	for _, j := range d.active {
		j.reports++
		done := d.sh.jobRounds > 0 && j.reports >= d.sh.jobRounds
		// Resident jobs creep towards, and never reach, their total.
		attained := j.total * unit.Bytes(j.reports) / unit.Bytes(j.reports+1)
		if d.sh.jobRounds > 0 {
			attained = j.total * unit.Bytes(j.reports) / unit.Bytes(d.sh.jobRounds)
		}
		d.check(d.sched.Progress(controlplane.ProgressRequest{
			JobID: j.id, AttainedBytes: attained, Done: done,
		}), "progress", j.id)
		if done {
			if err := d.sink.DetachJob(j.id); err != nil {
				d.ph.fail("%s detach %s: %v", d.sh.name, j.id, err)
			}
		} else {
			keep = append(keep, j)
		}
	}
	d.active = keep
	d.tr.end(sp, reports)

	sp = d.tr.begin("controlplane.heartbeat", root, trace)
	for _, hb := range d.beats {
		d.check(d.sched.Heartbeat(hb), "heartbeat", hb.Node)
	}
	d.tr.end(sp, len(d.beats))
	t1 := time.Now()

	var m0 uint64
	if d.tr != nil {
		m0 = mallocs()
	}
	d.sink.pushes = 0
	sp = d.tr.begin("controlplane.schedule", root, trace)
	if d.pol != nil {
		d.pol.parent, d.pol.trace = sp, trace
	}
	s0 := time.Now()
	err := d.sched.Schedule()
	round = time.Since(s0).Seconds()
	if d.tr != nil && d.sink.pushes > 0 {
		d.tr.add("dataplane.push", sp, trace, d.sink.first, d.sink.last, d.sink.pushes)
	}
	d.tr.end(sp, 0)
	d.tr.end(root, 0)
	if d.tr != nil {
		d.mallocs = append(d.mallocs, float64(mallocs()-m0))
	}
	d.check(err, "schedule", "")
	if over := d.sink.overCapacity(d.cluster); over != "" {
		d.ph.fail("%s after round at t=%v: %s", d.sh.name, d.virtual.Unix(), over)
	}
	ingest = t1.Sub(t0).Seconds()
	if measured {
		d.cal.sample(1)
		d.ingestS += ingest
		d.ingestOps += len(d.submits) + reports + len(d.beats)
		d.activeAt = append(d.activeAt, float64(len(d.active)))
	}
	return ingest, round
}

// runCP measures one cp-* workload: build the cluster, warm up until
// the active set is stationary, then cycle until the limit.
func runCP(sh cpShape, seed int64, lim limit, tr *tracer) (*phase, error) {
	ph := newPhase()
	start := time.Now()
	d, err := newCPDriver(sh, seed, tr, ph)
	if err != nil {
		return nil, err
	}
	for _, hb := range d.beats {
		d.check(d.sched.Heartbeat(hb), "heartbeat", hb.Node)
	}
	for i := 0; i < sh.resident; i++ {
		d.submit(d.newSubmit())
	}
	for i := 0; i < sh.warmup; i++ {
		d.cycle(false)
	}
	ph.setupS = time.Since(start).Seconds()
	ph.attempted, ph.failed = 0, 0 // set-up calls are not measured operations
	d.sink.allPushes, d.sink.changed = 0, 0
	if tr != nil {
		d.tr, d.pol.tr, d.sink.timed = tr, tr, true
		d.pol.jobs = d.pol.jobs[:0]
	}

	before := totalAllocMB()
	for began := time.Now(); lim.more(len(ph.ops), began); {
		ingest, round := d.cycle(true)
		ph.ops = append(ph.ops, round)
		ph.turnaround = append(ph.turnaround, ingest+round)
	}
	ph.allocMB = totalAllocMB() - before
	ph.allocOps = len(ph.ops)
	ph.fingerprint = d.sink.digest()
	ph.speed = d.cal.speed()
	ph.solveAttempts = 1

	rounds := float64(len(ph.ops))
	ph.layer.set("controlplane.ingest_ops_per_s", ratio(float64(d.ingestOps), d.ingestS), d.ingestOps)
	ph.layer.set("controlplane.round_p50_ms", stats.Median(ph.ops)*1e3, len(ph.ops))
	ph.layer.set("controlplane.round_mean_ms", stats.Mean(ph.ops)*1e3, len(ph.ops))
	ph.layer.set("controlplane.round_p95_ms", stats.Percentile(ph.ops, 95)*1e3, len(ph.ops))
	ph.layer.set("controlplane.round_max_ms", stats.Max(ph.ops)*1e3, len(ph.ops))
	ph.layer.set("controlplane.active_jobs_p50", stats.Median(d.activeAt), len(d.activeAt))
	ph.layer.set("dataplane.pushes_per_round", ratio(float64(d.sink.allPushes), rounds), len(ph.ops))
	ph.layer.set("dataplane.changed_push_ratio", ratio(float64(d.sink.changed), float64(d.sink.allPushes)), d.sink.allPushes)
	if tr == nil {
		return ph, nil
	}

	spans := tr.snapshot()
	self := selfTimes(spans)
	for _, c := range []struct {
		span, metric string
		scale        float64
	}{
		{"controlplane.heartbeat", "controlplane.heartbeat_ns", 1e9},
		{"controlplane.submit", "controlplane.submit_us", 1e6},
		{"controlplane.progress", "controlplane.progress_ns", 1e9},
	} {
		per, calls := perCall(spans, c.span)
		ph.layer.set(c.metric, per*c.scale, calls)
	}
	ph.layer.set("controlplane.round_self_ms", selfByName(spans, self, "controlplane.schedule")/rounds*1e3, len(ph.ops))
	ph.layer.set("controlplane.round_mallocs", stats.Median(d.mallocs), len(d.mallocs))
	ph.layer.set("dataplane.push_ms_per_round", stats.Sum(byName(spans, "dataplane.push"))/rounds*1e3, len(ph.ops))
	ph.assignJobs = d.pol.jobs
	ph.probe = d.pol.big
	return ph, nil
}
