package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/datamgr"
	"repro/internal/loadgen"
	"repro/internal/policy"
	"repro/internal/simrng"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/unit"
)

// serveShape sizes serve-http: silodd's wiring in one process.
type serveShape struct {
	cluster  core.Cluster
	rates    []int         // offered jobs/s, one open-loop step each
	shares   []float64     // each step's share of -seconds; the top step, the measured one, gets most
	warmup   time.Duration // at rates[0], before the first measured step
	tick     time.Duration // RunRound period
	hold     time.Duration // a job reports Done this long after the data plane attached it
	queueCap int           // admission capacity, default watermarks
	limit    time.Duration // admit-latency limit behind serve.max_rate_ok_per_s
}

func fullServe() serveShape {
	return serveShape{
		cluster: core.Cluster{GPUs: 96, Cache: 24 * unit.TB, RemoteIO: unit.GBpsOf(1)},
		rates:   []int{50, 100, 200},
		shares:  []float64{1. / 6, 1. / 6, 4. / 6},
		warmup:  time.Second, tick: 25 * time.Millisecond, hold: 2 * time.Second,
		// Four times silodd's usual 256: at 200 jobs/s the rounds keep the
		// scheduler 97 % busy, and a 0.7 s stall of this shared host is
		// enough to push 128 submissions past the default high-water mark
		// and shed them. The workloads are chosen so that no operation fails.
		queueCap: 1024, limit: 100 * time.Millisecond,
	}
}

// arrival is one planned submission and what its sender saw.
type arrival struct {
	due  time.Duration // offset from the run's start
	step int           // index into rates; -1 during warm-up
	id   string
	slo  tenant.SLOClass
	body []byte

	sent, replied time.Time
	status        int
	err           error
}

// servePlan lays the warm-up and the steps end to end. Each gets its
// own loadgen.Plan (CV 2, 10 datasets of 1-20 GB, gangs of up to 2) of
// exactly rate x length arrivals, its gaps stretched so that the last
// one lands at the step's end: the offered rate is the nominal one for
// every seed (a CV-2 stream cut at a fixed time instead carries +-7 %
// more or fewer arrivals, and round cost grows with the square of the
// active set), while the bursts inside the step stay the seed's own.
// Job and dataset names carry the step so plans never collide on a
// dataset's geometry.
func servePlan(sh serveShape, seed int64, durs []time.Duration) ([]*arrival, error) {
	var out []*arrival
	var offset time.Duration
	for k := -1; k < len(sh.rates); k++ {
		rate, dur := sh.rates[max(k, 0)], sh.warmup
		if k >= 0 {
			dur = durs[k]
		}
		plan, err := loadgen.Plan(loadgen.Spec{
			Seed: simrng.ArmSeed(seed, k+1), Jobs: max(int(float64(rate)*dur.Seconds()), 1),
			MeanIAT: time.Second / time.Duration(rate), CV: 2,
			Datasets: 10, MinDataset: 1 * unit.GB, MaxDataset: 20 * unit.GB, MaxGPUs: 2,
			CritWeight: 1, StdWeight: 2, ShedWeight: 2,
		})
		if err != nil {
			return nil, err
		}
		stretch := float64(dur) / float64(plan[len(plan)-1].At+time.Second/time.Duration(2*rate))
		for _, a := range plan {
			id := fmt.Sprintf("s%d-%s", k+1, a.JobID)
			body, err := json.Marshal(controlplane.SubmitJobRequest{
				JobID: id, Model: "ResNet-50",
				Dataset: fmt.Sprintf("s%d-%s", k+1, a.Dataset), DatasetSize: a.DatasetSize,
				NumGPUs: a.NumGPUs, IdealThroughput: a.IdealThroughput,
				TotalBytes: a.TotalBytes, Tenant: a.Tenant,
			})
			if err != nil {
				return nil, err
			}
			due := offset + time.Duration(float64(a.At)*stretch)
			out = append(out, &arrival{due: due, step: k, id: id, slo: a.SLO, body: body})
		}
		offset += dur
	}
	return out, nil
}

// attachRec is one AttachJob the data plane accepted.
type attachRec struct {
	id string
	at time.Time
}

// attachPlane wraps silodd's LocalDataPlane. The AttachJob timestamp is
// the measuring instrument of admit latency and is taken in both modes;
// with a tracer it also spans every attach and clocks each round's
// first and last allocation push. Every call arrives on the round
// goroutine (RunRound drains admission and pushes; nothing heartbeats),
// so only the attach counter the drain-wait polls is atomic.
type attachPlane struct {
	controlplane.LocalDataPlane
	tr            *tracer
	parent, trace int // the running round's span

	attached  []attachRec
	attachedN atomic.Int64

	first, last time.Time
	pushes      int // this round
}

func (p *attachPlane) AttachJob(jobID, dataset string) error {
	sp := p.tr.begin("datamgr.attach", p.parent, p.trace)
	err := p.LocalDataPlane.AttachJob(jobID, dataset)
	p.tr.end(sp, 0)
	if err == nil {
		p.attached = append(p.attached, attachRec{jobID, time.Now()})
		p.attachedN.Add(1)
	}
	return err
}

func (p *attachPlane) pushed(began time.Time) {
	if p.tr == nil {
		return
	}
	if p.pushes == 0 {
		p.first = began
	}
	p.last = time.Now()
	p.pushes++
}

func (p *attachPlane) now() time.Time {
	if p.tr == nil {
		return time.Time{}
	}
	return time.Now()
}

func (p *attachPlane) AllocateCacheSize(dataset string, size unit.Bytes) error {
	began := p.now()
	err := p.LocalDataPlane.AllocateCacheSize(dataset, size)
	p.pushed(began)
	return err
}

func (p *attachPlane) AllocateRemoteIO(jobID string, speed unit.Bandwidth) error {
	began := p.now()
	err := p.LocalDataPlane.AllocateRemoteIO(jobID, speed)
	p.pushed(began)
	return err
}

// roundRec is one RunRound as the round goroutine clocked it.
type roundRec struct {
	start  time.Time
	secs   float64
	depth  int // admission queue depth polled at the tick
	active int // attached, not yet done
	span   int

	pushS  float64 // traced runs: first to last allocation push
	pushes int
}

// serveHost is the in-process stack: scheduler, data manager, admission
// queue, loopback listener, and the round goroutine.
type serveHost struct {
	sh     serveShape
	sched  *controlplane.SchedulerServer
	mgr    *datamgr.Manager
	plane  *attachPlane
	queue  *admission.Queue
	pol    *tracedPolicy
	tr     *tracer
	url    string
	client *http.Client

	rounds    []roundRec // round goroutine only, read after it stops
	roundErrs []error
	doneErrs  []error
}

func newServeHost(sh serveShape, seed int64, tr *tracer) (*serveHost, net.Listener, error) {
	buildSpan := tr.begin("policy.build", -1, tr.newTrace())
	bare, err := policy.Build(policy.FIFOKind, policy.SiloD, seed)
	tr.end(buildSpan, 0)
	if err != nil {
		return nil, nil, err
	}
	h := &serveHost{sh: sh, tr: tr}
	var pol core.Policy
	pol, h.pol = wrapPolicy(bare, tr, -1, -1)
	h.mgr = datamgr.New(sh.cluster.Cache, sh.cluster.RemoteIO, seed, nil)
	h.plane = &attachPlane{LocalDataPlane: controlplane.LocalDataPlane{Mgr: h.mgr}, tr: tr, parent: -1, trace: -1}
	h.sched, err = controlplane.NewSchedulerServer(sh.cluster, pol, h.plane, time.Now)
	if err != nil {
		return nil, nil, err
	}
	reg := tenant.NewRegistry()
	for _, tn := range loadgen.Tenants() {
		if err := reg.Register(tn); err != nil {
			return nil, nil, err
		}
	}
	h.sched.ConfigureTenants(reg)
	h.queue, err = admission.New(admission.Config{Capacity: sh.queueCap}, h.sched.Registry(), simrng.New(seed))
	if err != nil {
		return nil, nil, err
	}
	h.sched.ConfigureAdmission(h.queue)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	h.url = "http://" + ln.Addr().String()
	h.client = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	return h, ln, nil
}

// post sends one JSON body and drains the reply so the connection is
// reused.
func (h *serveHost) post(path string, body []byte) (int, error) {
	resp, err := h.client.Post(h.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, err
}

func serveListener(srv *http.Server, ln net.Listener, errc chan<- error) { errc <- srv.Serve(ln) }

// runRounds is the round goroutine: on every tick it first plays the
// finished jobs' clients — POST /v1/progress Done, then detach from the
// data manager as internal/testbed's jobs do — and then runs one
// RunRound. Completing here, between rounds, means a round never sees a
// job that is done but still holds ledger bandwidth.
func (h *serveHost) runRounds(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(h.sh.tick)
	defer ticker.Stop()
	seen, finished := 0, 0
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		for finished < seen && time.Since(h.plane.attached[finished].at) >= h.sh.hold {
			id := h.plane.attached[finished].id
			body, err := json.Marshal(controlplane.ProgressRequest{JobID: id, Done: true})
			if err == nil {
				var status int
				if status, err = h.post("/v1/progress", body); err == nil && status != http.StatusOK {
					err = fmt.Errorf("progress %s: HTTP %d", id, status)
				}
			}
			if err != nil {
				h.doneErrs = append(h.doneErrs, err)
			}
			h.mgr.DetachJob(id)
			finished++
		}
		rec := roundRec{depth: h.queue.Depth(), active: seen - finished}
		trace := h.tr.newTrace()
		h.plane.pushes = 0
		rec.start = time.Now()
		rec.span = h.tr.begin("controlplane.run_round", -1, trace)
		if h.tr != nil {
			h.plane.parent, h.plane.trace = rec.span, trace
			h.pol.parent, h.pol.trace = rec.span, trace
		}
		err := h.sched.RunRound(context.Background(), controlplane.ServeConfig{})
		rec.secs = time.Since(rec.start).Seconds()
		if h.tr != nil && h.plane.pushes > 0 {
			h.tr.add("datamgr.push", rec.span, trace, h.plane.first, h.plane.last, h.plane.pushes)
			rec.pushS, rec.pushes = h.plane.last.Sub(h.plane.first).Seconds(), h.plane.pushes
		}
		h.tr.end(rec.span, 0)
		if err != nil {
			h.roundErrs = append(h.roundErrs, err)
		}
		h.rounds = append(h.rounds, rec)
		seen = len(h.plane.attached)
	}
}

// send replays mine at their due times, never ahead of plan and never
// waiting for anything but the reply: the loop is open.
func (h *serveHost) send(ctx context.Context, start time.Time, mine []*arrival) {
	for _, a := range mine {
		if wait := a.due - time.Since(start); wait > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		}
		a.sent = time.Now()
		a.status, a.err = h.post("/v1/jobs", a.body)
		a.replied = time.Now()
	}
}

// runServe measures serve-http: boot the stack, replay the plan open
// loop from at most GOMAXPROCS senders, drain, stop, then reduce the
// timestamps.
func runServe(sh serveShape, seed int64, lim limit, tr *tracer) (*phase, error) {
	ph := newPhase()
	setup := time.Now()
	// begins[k] is when step k begins, as an offset from the run's start;
	// begins[len(rates)] is when the last one ends.
	durs := make([]time.Duration, len(sh.rates))
	begins := []time.Duration{sh.warmup}
	for k, share := range sh.shares {
		durs[k] = time.Duration(lim.seconds * share * float64(time.Second))
		begins = append(begins, begins[k]+durs[k])
	}
	genSpan := tr.begin("workload.generate", -1, tr.newTrace())
	plan, err := servePlan(sh, seed, durs)
	tr.end(genSpan, 0)
	if err != nil {
		return nil, err
	}
	h, ln, err := newServeHost(sh, seed, tr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h.sched, ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go serveListener(srv, ln, errc)
	stop, roundsDone := make(chan struct{}), make(chan struct{})
	go h.runRounds(stop, roundsDone)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	senders := runtime.GOMAXPROCS(0)
	lanes := make([][]*arrival, senders)
	for i, a := range plan {
		lanes[i%senders] = append(lanes[i%senders], a)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, lane := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.send(ctx, start, lane)
		}()
	}
	time.Sleep(time.Until(start.Add(sh.warmup)))
	ph.setupS = time.Since(setup).Seconds()
	before := totalAllocMB()
	wg.Wait()

	// Drain: every accepted submission must reach the data plane.
	var accepted int64
	for _, a := range plan {
		if a.status == http.StatusAccepted {
			accepted++
		}
	}
	for deadline := time.Now().Add(5 * time.Second); h.plane.attachedN.Load() < accepted && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	ph.allocMB = totalAllocMB() - before
	end := time.Now()
	close(stop)
	<-roundsDone
	cerr := srv.Close()
	<-errc
	h.client.CloseIdleConnections()
	if cerr != nil {
		return nil, cerr
	}
	if err := h.reduce(ph, plan, start, end, begins); err != nil {
		return nil, err
	}
	return ph, nil
}

// reduce turns the run's timestamps into the phase's metrics. The top
// step is the measured one end to end, from the moment its active set
// has stopped growing (one hold after it began, at most half the step);
// the lower steps locate the knee.
func (h *serveHost) reduce(ph *phase, plan []*arrival, start, end time.Time, begins []time.Duration) error {
	sh, tr := h.sh, h.tr
	for _, err := range h.roundErrs {
		ph.fail("serve-http RunRound: %v", err)
	}
	for _, err := range h.doneErrs {
		ph.fail("serve-http completion: %v", err)
	}
	attachedAt := make(map[string]time.Time, len(h.plane.attached))
	for _, r := range h.plane.attached {
		attachedAt[r.id] = r.at
	}
	top := len(sh.rates) - 1
	steady := start.Add(begins[top] + min(sh.hold, (begins[top+1]-begins[top])/2))

	// Submissions. One that was shed, rejected, errored or never
	// attached is a failed operation and waits until the run ends.
	type classCount struct{ offered, shed int }
	classes := make(map[tenant.SLOClass]*classCount)
	for _, c := range tenant.Classes() {
		classes[c] = &classCount{}
	}
	admit := make([][]float64, len(sh.rates))
	failedAt := make([]int, len(sh.rates))
	var httpMS, lateMS, waitMS []float64
	for _, a := range plan {
		if a.step < 0 {
			continue
		}
		due := start.Add(a.due)
		ph.attempted++
		classes[a.slo].offered++
		at, ok := attachedAt[a.id]
		switch {
		case a.status == http.StatusAccepted && ok:
			waitMS = append(waitMS, max(at.Sub(a.replied).Seconds(), 0)*1e3)
		case a.status == http.StatusAccepted:
			ph.fail("serve-http: %s was accepted (202) but never attached", a.id)
			fallthrough
		default:
			if a.err != nil {
				ph.fail("serve-http: submit %s: %v", a.id, a.err)
			}
			if a.status == http.StatusServiceUnavailable {
				classes[a.slo].shed++
			}
			ok, at = false, end
			ph.failed++
			failedAt[a.step]++
		}
		admit[a.step] = append(admit[a.step], at.Sub(due).Seconds())
		if !due.Before(steady) {
			ph.turnaround = append(ph.turnaround, at.Sub(due).Seconds())
		}
		if a.sent.IsZero() {
			continue
		}
		lateMS = append(lateMS, a.sent.Sub(due).Seconds()*1e3)
		httpMS = append(httpMS, a.replied.Sub(due).Seconds()*1e3)
		if tr != nil {
			rootEnd := at
			if !ok {
				rootEnd = a.replied
			}
			trace := tr.newTrace()
			root := tr.add("serve.admit", -1, trace, due, rootEnd, 0)
			tr.add("controlplane.http_submit", root, trace, a.sent, minTime(a.replied, rootEnd), 0)
		}
	}
	ph.allocOps = ph.attempted

	// Rounds, by the step they began in.
	stepRounds := make([][]roundRec, len(sh.rates))
	measured := 0
	for _, r := range h.rounds {
		at := r.start.Sub(start)
		if at < begins[0] || at >= begins[top+1] {
			continue
		}
		k := sort.Search(top, func(k int) bool { return at < begins[k+1] })
		stepRounds[k] = append(stepRounds[k], r)
		measured++
		ph.peakActive = max(ph.peakActive, r.active)
	}
	var active, pushS, pushes []float64
	for _, r := range stepRounds[top] {
		if r.start.Before(steady) {
			continue
		}
		ph.ops = append(ph.ops, r.secs)
		active = append(active, float64(r.active))
		pushS = append(pushS, r.pushS)
		pushes = append(pushes, float64(r.pushes))
	}
	if len(ph.ops) == 0 {
		return fmt.Errorf("serve-http: no round ran during the %d jobs/s step", sh.rates[top])
	}
	ph.solveAttempts = 1
	ph.tracedOps = len(h.rounds)

	high, _, _ := h.queue.Watermarks()
	var depthMax, overruns, okRate float64
	for k, rate := range sh.rates {
		sfx := fmt.Sprintf(".r%d", rate)
		ph.layer.set("serve.admit_p50_ms"+sfx, stats.Median(admit[k])*1e3, len(admit[k]))
		ph.layer.set("serve.admit_p95_ms"+sfx, stats.Percentile(admit[k], 95)*1e3, len(admit[k]))
		endDepth := 0
		for _, r := range stepRounds[k] {
			depthMax = max(depthMax, float64(r.depth))
			endDepth = r.depth
			if r.secs > sh.tick.Seconds() {
				overruns++
			}
		}
		if stats.Percentile(admit[k], 95) <= sh.limit.Seconds() &&
			float64(failedAt[k]) <= 0.01*float64(len(admit[k])) && endDepth < high {
			okRate = float64(rate)
		}
	}
	window := start.Add(begins[top+1]).Sub(steady).Seconds()
	topSfx := fmt.Sprintf(".r%d", sh.rates[top])
	ph.layer.set("serve.admit_p99_ms"+topSfx, stats.Percentile(admit[top], 99)*1e3, len(admit[top]))
	ph.layer.set("serve.max_rate_ok_per_s", okRate, len(sh.rates))
	ph.layer.set("controlplane.round_busy_frac"+topSfx, stats.Sum(ph.ops)/window, len(ph.ops))
	ph.layer.set("controlplane.round_overruns", overruns, measured)
	ph.layer.set("controlplane.round_p50_ms", stats.Median(ph.ops)*1e3, len(ph.ops))
	ph.layer.set("controlplane.round_mean_ms", stats.Mean(ph.ops)*1e3, len(ph.ops))
	ph.layer.set("controlplane.round_p95_ms", stats.Percentile(ph.ops, 95)*1e3, len(ph.ops))
	ph.layer.set("controlplane.round_max_ms", stats.Max(ph.ops)*1e3, len(ph.ops))
	ph.layer.set("controlplane.active_jobs_p50", stats.Median(active), len(active))
	ph.layer.set("controlplane.http_submit_p50_ms", stats.Median(httpMS), len(httpMS))
	ph.layer.set("controlplane.http_submit_p95_ms", stats.Percentile(httpMS, 95), len(httpMS))
	ph.layer.set("loadgen.lateness_p95_ms", stats.Percentile(lateMS, 95), len(lateMS))
	ph.layer.set("admission.queue_wait_p50_ms", stats.Median(waitMS), len(waitMS))
	ph.layer.set("admission.depth_max", depthMax, measured)
	for _, c := range tenant.Classes() {
		n := classes[c]
		ph.layer.set("admission.shed_fraction."+c.String(), ratio(float64(n.shed), float64(n.offered)), n.offered)
	}
	if tr == nil {
		return nil
	}

	spans := tr.snapshot()
	self := selfTimes(spans)
	var selfS float64
	for _, r := range stepRounds[top] {
		if !r.start.Before(steady) {
			selfS += self[r.span]
		}
	}
	attach := byName(spans, "datamgr.attach")
	ph.layer.set("controlplane.round_self_ms", selfS/float64(len(ph.ops))*1e3, len(ph.ops))
	ph.layer.set("datamgr.push_ms_per_round", stats.Mean(pushS)*1e3, len(ph.ops))
	ph.layer.set("datamgr.pushes_per_round", stats.Mean(pushes), len(ph.ops))
	ph.layer.set("datamgr.attach_us", stats.Median(attach)*1e6, len(attach))
	ph.assignJobs = h.pol.jobs
	return nil
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
