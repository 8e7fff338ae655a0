// Command silodload replays a seeded, bursty submission storm against
// a scheduler's online serving mode and reports what survived: the
// sustained admission rate, shed fractions per SLO tier, and submit /
// round latency quantiles, printed as JSON (and written to -out).
//
//	silodload -seed 42 -jobs 400 -mean-iat 5ms -cv 2 -out load.json
//
// With no -addr the generator self-hosts: it boots an in-process
// scheduler (FIFO on SiloD, queued-submission mode, bounded admission
// queue) on a loopback listener and drives rounds itself, so one
// binary measures the whole drain-shed-recover loop. Point -addr at a
// running silodd scheduler to load an external deployment instead
// (round latencies are then unavailable and reported as zero).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
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

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "silodload:", err)
		os.Exit(1)
	}
}

// tierReport is one SLO tier's aggregate plus its derived shed
// fraction, so the JSON is self-contained.
type tierReport struct {
	loadgen.TierStats
	ShedFraction float64 `json:"shed_fraction"`
}

// benchReport is the JSON document silodload emits.
type benchReport struct {
	Spec            loadgen.Spec          `json:"spec"`
	WallSeconds     float64               `json:"wall_seconds"`
	OfferedPerSec   float64               `json:"offered_jobs_per_sec"`
	SustainedPerSec float64               `json:"sustained_jobs_per_sec"`
	Tiers           map[string]tierReport `json:"tiers"`
	ShedMonotone    bool                  `json:"shed_monotone"`
	SubmitP50Millis float64               `json:"submit_p50_ms"`
	SubmitP99Millis float64               `json:"submit_p99_ms"`
	SubmitMaxMillis float64               `json:"submit_max_ms"`
	Rounds          int                   `json:"rounds"`
	RoundErrors     int                   `json:"round_errors"`
	RoundP50Millis  float64               `json:"round_p50_ms"`
	RoundP99Millis  float64               `json:"round_p99_ms"`
	TransportErrors int                   `json:"transport_errors"`
	FinalQueueDepth int                   `json:"final_queue_depth"`
	SelfHosted      bool                  `json:"self_hosted"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("silodload", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "workload seed")
	jobs := fs.Int("jobs", 400, "number of submissions to replay")
	meanIAT := fs.Duration("mean-iat", 5*time.Millisecond, "mean interarrival time")
	cv := fs.Float64("cv", 2, "interarrival coefficient of variation (1 = Poisson)")
	datasets := fs.Int("datasets", 10, "distinct datasets (Zipf-shared)")
	minDS := fs.String("min-dataset", "1GB", "smallest dataset size")
	maxDS := fs.String("max-dataset", "20GB", "largest dataset size")
	maxGPUs := fs.Int("max-gpus", 2, "largest gang size")
	critW := fs.Float64("crit-weight", 1, "critical tier weight")
	stdW := fs.Float64("std-weight", 2, "standard tier weight")
	shedW := fs.Float64("shed-weight", 2, "sheddable tier weight")
	addr := fs.String("addr", "", "scheduler base URL (empty = self-host in process)")
	out := fs.String("out", "", "also write the report to this file")
	gpus := fs.Int("gpus", 8, "self-host: cluster GPUs")
	cacheStr := fs.String("cache", "100GB", "self-host: cluster cache")
	remoteStr := fs.String("remote", "200MB", "self-host: remote IO bandwidth")
	interval := fs.Duration("interval", 25*time.Millisecond, "self-host: round period")
	batch := fs.Int("batch", 8, "self-host: submissions drained per round")
	capacity := fs.Int("capacity", 64, "self-host: admission queue capacity")
	highWater := fs.Int("high-water", 12, "self-host: sheddable-tier watermark")
	stdWater := fs.Int("std-water", 24, "self-host: standard-tier watermark")
	drainWait := fs.Duration("drain-wait", 5*time.Second, "self-host: max wait for the backlog to drain")
	if err := fs.Parse(args); err != nil {
		return err
	}

	minBytes, err := unit.ParseBytes(*minDS)
	if err != nil {
		return err
	}
	maxBytes, err := unit.ParseBytes(*maxDS)
	if err != nil {
		return err
	}
	spec := loadgen.Spec{
		Seed: *seed, Jobs: *jobs, MeanIAT: *meanIAT, CV: *cv,
		Datasets: *datasets, MinDataset: minBytes, MaxDataset: maxBytes,
		MaxGPUs: *maxGPUs, CritWeight: *critW, StdWeight: *stdW, ShedWeight: *shedW,
	}
	plan, err := loadgen.Plan(spec)
	if err != nil {
		return err
	}

	rep := benchReport{Spec: spec, Tiers: map[string]tierReport{}}
	base := *addr
	var host *selfHost
	if base == "" {
		cacheBytes, err := unit.ParseBytes(*cacheStr)
		if err != nil {
			return err
		}
		remoteBW, err := unit.ParseBandwidth(*remoteStr)
		if err != nil {
			return err
		}
		host, err = startSelfHost(selfHostConfig{
			Cluster:  core.Cluster{GPUs: *gpus, Cache: cacheBytes, RemoteIO: remoteBW},
			Seed:     *seed,
			Interval: *interval,
			Batch:    *batch,
			Queue:    admission.Config{Capacity: *capacity, HighWater: *highWater, StandardWater: *stdWater},
		})
		if err != nil {
			return err
		}
		defer host.stop()
		base = host.url
		rep.SelfHosted = true
		log.Printf("silodload: self-hosted scheduler at %s (%d GPUs, round every %v, batch %d)",
			base, *gpus, *interval, *batch)
	}

	report, submitSecs, transportErrs := replay(base, plan)
	rep.WallSeconds = replayWall(plan, submitSecs)
	rep.TransportErrors = transportErrs

	if host != nil {
		host.awaitDrain(*drainWait)
		host.stop() // freeze round stats before reading them
		rep.Rounds, rep.RoundErrors = host.rec.counts()
		rounds := host.rec.durations()
		rep.RoundP50Millis = stats.Percentile(rounds, 50) * 1000
		rep.RoundP99Millis = stats.Percentile(rounds, 99) * 1000
		rep.FinalQueueDepth = host.queue.Depth()
	}

	total := report.Total()
	if rep.WallSeconds > 0 {
		rep.OfferedPerSec = float64(total.Offered) / rep.WallSeconds
		rep.SustainedPerSec = float64(total.Accepted) / rep.WallSeconds
	}
	for _, c := range tenant.Classes() {
		t := report.Tier(c)
		rep.Tiers[c.String()] = tierReport{TierStats: t, ShedFraction: t.ShedFraction()}
	}
	rep.ShedMonotone = report.ShedMonotone()
	rep.SubmitP50Millis = stats.Percentile(submitSecs, 50) * 1000
	rep.SubmitP99Millis = stats.Percentile(submitSecs, 99) * 1000
	rep.SubmitMaxMillis = stats.Percentile(submitSecs, 100) * 1000

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", blob)
	if *out != "" {
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		log.Printf("silodload: wrote %s", *out)
	}
	return nil
}

// replay offers every planned arrival to the scheduler at its planned
// time (sleeping out the gaps, never ahead of plan) and classifies the
// responses. Submissions are issued synchronously from this one
// goroutine, so the generator is closed-loop: a slow scheduler delays
// subsequent offers instead of piling up unbounded in-flight requests.
func replay(base string, plan []loadgen.Arrival) (report loadgen.Report, submitSecs []float64, transportErrs int) {
	hc := &http.Client{Timeout: 10 * time.Second}
	start := time.Now()
	for _, a := range plan {
		if d := a.At - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		st := time.Now()
		status, err := postSubmit(hc, base, a)
		submitSecs = append(submitSecs, time.Since(st).Seconds())
		if err != nil {
			transportErrs++
			report.Record(a.SLO, loadgen.StatusError)
			continue
		}
		switch {
		case status == http.StatusAccepted || status == http.StatusOK:
			report.Record(a.SLO, loadgen.StatusAccepted)
		case status == http.StatusServiceUnavailable:
			report.Record(a.SLO, loadgen.StatusShed)
		case status == http.StatusBadRequest || status == http.StatusTooManyRequests:
			report.Record(a.SLO, loadgen.StatusRejected)
		default:
			report.Record(a.SLO, loadgen.StatusError)
		}
	}
	return report, submitSecs, transportErrs
}

// replayWall is the storm's wall-clock span: the last planned arrival
// offset plus that submission's service time — what offered/sustained
// rates divide by.
func replayWall(plan []loadgen.Arrival, submitSecs []float64) float64 {
	if len(plan) == 0 {
		return 0
	}
	wall := plan[len(plan)-1].At.Seconds()
	if n := len(submitSecs); n > 0 {
		wall += submitSecs[n-1]
	}
	return wall
}

// postSubmit maps one arrival onto POST /v1/jobs and returns the
// status code. The body is read and closed fully so the transport
// reuses connections across the storm.
func postSubmit(hc *http.Client, base string, a loadgen.Arrival) (int, error) {
	body, err := json.Marshal(controlplane.SubmitJobRequest{
		JobID: a.JobID, Model: "ResNet-50",
		Dataset: a.Dataset, DatasetSize: a.DatasetSize,
		NumGPUs: a.NumGPUs, IdealThroughput: a.IdealThroughput,
		TotalBytes: a.TotalBytes, Tenant: a.Tenant,
	})
	if err != nil {
		return 0, err
	}
	resp, err := hc.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return resp.StatusCode, resp.Body.Close()
	}
	if err := resp.Body.Close(); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// roundRecorder collects per-round wall durations from the self-host
// round loop.
type roundRecorder struct {
	mu    sync.Mutex
	secs  []float64 // guarded by mu
	fails int       // guarded by mu
}

func (r *roundRecorder) add(sec float64, failed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.secs = append(r.secs, sec)
	if failed {
		r.fails++
	}
}

func (r *roundRecorder) counts() (rounds, fails int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.secs), r.fails
}

func (r *roundRecorder) durations() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, len(r.secs))
	copy(out, r.secs)
	return out
}

type selfHostConfig struct {
	Cluster  core.Cluster
	Seed     int64
	Interval time.Duration
	Batch    int
	Queue    admission.Config
}

// selfHost is an in-process scheduler stack: one HTTP listener, one
// round-loop goroutine, a bounded admission queue.
type selfHost struct {
	url      string
	queue    *admission.Queue
	srv      *http.Server
	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}
	errCh    chan error
	rec      *roundRecorder
}

// startSelfHost boots the in-process stack on a loopback listener.
func startSelfHost(cfg selfHostConfig) (*selfHost, error) {
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, cfg.Seed)
	if err != nil {
		return nil, err
	}
	mgr := datamgr.New(cfg.Cluster.Cache, cfg.Cluster.RemoteIO, cfg.Seed, nil)
	sched, err := controlplane.NewSchedulerServer(cfg.Cluster, pol, controlplane.LocalDataPlane{Mgr: mgr}, time.Now)
	if err != nil {
		return nil, err
	}
	reg := tenant.NewRegistry()
	for _, tn := range loadgen.Tenants() {
		if err := reg.Register(tn); err != nil {
			return nil, err
		}
	}
	sched.ConfigureTenants(reg)
	q, err := admission.New(cfg.Queue, sched.Registry(), simrng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	sched.ConfigureAdmission(q)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &selfHost{
		url:   "http://" + ln.Addr().String(),
		queue: q,
		srv: &http.Server{
			Handler:           sched,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			WriteTimeout:      10 * time.Second,
		},
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
		errCh:  make(chan error, 1),
		rec:    &roundRecorder{},
	}
	go serveListener(h.srv, ln, h.errCh)
	go roundLoop(sched, controlplane.ServeConfig{Batch: cfg.Batch, RoundDeadline: cfg.Interval},
		cfg.Interval, h.stopCh, h.doneCh, h.rec)
	return h, nil
}

// serveListener runs the HTTP server until stop() closes it; the exit
// error lands in errc for anyone who cares.
func serveListener(srv *http.Server, ln net.Listener, errc chan<- error) {
	errc <- srv.Serve(ln)
}

// roundLoop is the self-host scheduler goroutine: one RunRound per
// tick, timed, until stop closes.
func roundLoop(s *controlplane.SchedulerServer, cfg controlplane.ServeConfig,
	interval time.Duration, stop <-chan struct{}, done chan<- struct{}, rec *roundRecorder) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			st := time.Now()
			err := s.RunRound(context.Background(), cfg)
			rec.add(time.Since(st).Seconds(), err != nil)
		}
	}
}

// awaitDrain polls until the admission backlog is empty or the
// deadline passes, so the report reflects a fully-drained run when the
// scheduler can keep up.
func (h *selfHost) awaitDrain(max time.Duration) {
	deadline := time.Now().Add(max)
	for h.queue.Depth() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}

// stop tears the stack down: the round loop first, then the listener.
// Idempotent — run() calls it eagerly to freeze round stats before
// reporting, and the deferred call mops up on error paths.
func (h *selfHost) stop() {
	h.stopOnce.Do(func() {
		close(h.stopCh)
		<-h.doneCh
		if err := h.srv.Close(); err != nil {
			log.Printf("silodload: closing listener: %v", err)
		}
		<-h.errCh
	})
}
