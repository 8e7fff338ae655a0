package controlplane

import (
	"context"
	"log"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/datamgr"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simrng"
	"repro/internal/tenant"
)

// This file is the serving stack, built in one place: the data-manager
// and scheduler services on their own listeners and the scheduler's
// single round loop (Serve). cmd/silodd runs it until a signal;
// cmd/silodload self-hosts it on loopback.

// Per-request server timeouts: a stalled or malicious client must not
// pin a connection (and its handler goroutine) forever.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 30 * time.Second
)

// quietPeriod is how long a draining daemon's listeners must go without
// a new connection before they close. Closing a listener resets every
// connection the kernel completed on its behalf but the server has not
// accepted yet, and its client sees the reset after its request is
// written; clients answered 503 stop connecting, so waiting for quiet
// leaves no such connection behind.
const quietPeriod = 100 * time.Millisecond

// DaemonConfig is the whole serving stack's configuration.
type DaemonConfig struct {
	Cluster   core.Cluster
	Scheduler policy.SchedulerKind
	System    policy.CacheSystem
	Seed      int64
	DMAddr    string
	SchedAddr string
	Interval  time.Duration // 0 = rounds on demand (POST /v1/schedule); 1s in queue mode
	Drain     time.Duration
	Queue     admission.Config // Capacity 0 = synchronous submits
	Batch     int
	Tenants   *tenant.Registry
}

// Daemon is the running control plane: two HTTP listeners and the
// scheduler's round-loop goroutine.
type Daemon struct {
	cfg       DaemonConfig
	sched     *SchedulerServer
	dmSrv     *http.Server
	schedSrv  *http.Server
	schedAddr net.Addr
	clock     func() time.Time
	errc      chan error    // listener exit errors
	stop      chan struct{} // closes to stop the round loop
	loopDone  chan struct{} // closes when the round loop exits
	lastConn  atomic.Int64  // clock ns of the newest accepted connection
}

// NewDaemon builds the control plane, binds both listeners, and starts
// serving; onRound (may be nil) gets each round's duration and error.
// clock is the daemon's wall clock. Callers own shutdown (via Wait or
// Shutdown).
func NewDaemon(cfg DaemonConfig, clock func() time.Time, onRound func(time.Duration, error)) (*Daemon, error) {
	pol, err := policy.BuildTenant(cfg.Scheduler, cfg.System, cfg.Seed, cfg.Tenants)
	if err != nil {
		return nil, err
	}
	mgr := datamgr.New(cfg.Cluster.Cache, cfg.Cluster.RemoteIO, cfg.Seed, nil)
	mgr.EnableMetrics(metrics.NewRegistry("datamgr"))
	sched, err := NewSchedulerServer(cfg.Cluster, pol, LocalDataPlane{Mgr: mgr}, clock)
	if err != nil {
		return nil, err
	}
	if cfg.Tenants != nil {
		sched.ConfigureTenants(cfg.Tenants)
	}
	if cfg.Queue.Capacity > 0 {
		q, err := admission.New(cfg.Queue, sched.Registry(), simrng.New(cfg.Seed))
		if err != nil {
			return nil, err
		}
		sched.ConfigureAdmission(q)
		// Queued submissions only make progress through rounds.
		if cfg.Interval <= 0 {
			cfg.Interval = time.Second
		}
	}

	dmLn, err := net.Listen("tcp", cfg.DMAddr)
	if err != nil {
		return nil, err
	}
	schedLn, err := net.Listen("tcp", cfg.SchedAddr)
	if err != nil {
		if cerr := dmLn.Close(); cerr != nil {
			log.Printf("closing data-manager listener: %v", cerr)
		}
		return nil, err
	}
	d := &Daemon{
		cfg:       cfg,
		sched:     sched,
		schedAddr: schedLn.Addr(),
		clock:     clock,
		errc:      make(chan error, 2),
		stop:      make(chan struct{}),
		loopDone:  make(chan struct{}),
	}
	d.dmSrv, d.schedSrv = d.newServer(NewDataManagerServer(mgr)), d.newServer(sched)
	log.Printf("data manager listening on %s", dmLn.Addr())
	log.Printf("scheduler (%s on %s) listening on %s", cfg.Scheduler, cfg.System, schedLn.Addr())
	go func() { d.errc <- d.dmSrv.Serve(dmLn) }()
	go func() { d.errc <- d.schedSrv.Serve(schedLn) }()
	go func() {
		defer close(d.loopDone)
		sched.Serve(ServeConfig{Interval: cfg.Interval, Batch: cfg.Batch, RoundDeadline: cfg.Interval}, d.stop, onRound)
	}()
	return d, nil
}

// newServer wraps a handler with the per-request timeouts; every
// connection it accepts stamps lastConn.
func (d *Daemon) newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		ConnState: func(_ net.Conn, state http.ConnState) {
			if state == http.StateNew {
				d.lastConn.Store(d.clock().UnixNano())
			}
		},
	}
}

// SchedAddr is the address the scheduler listener bound, so a
// configured ":0" port can be dialled.
func (d *Daemon) SchedAddr() net.Addr { return d.schedAddr }

// QueueDepth is the admission backlog (0 in synchronous mode).
func (d *Daemon) QueueDepth() int {
	if q := d.sched.admissionQueue(); q != nil {
		return q.Depth()
	}
	return 0
}

// Wait blocks until a listener dies (the error is returned) or a
// shutdown signal arrives (the daemon drains gracefully and Wait
// returns nil).
func (d *Daemon) Wait(sig <-chan os.Signal) error {
	select {
	case err := <-d.errc:
		d.Shutdown()
		return err
	case s := <-sig:
		log.Printf("%v: draining (deadline %v)", s, d.cfg.Drain)
		d.Shutdown()
		return nil
	}
}

// Shutdown drains the daemon: flip the scheduler to draining (new
// submissions get a clean 503 + Retry-After), stop the round loop, wait
// for the listeners to go quiet (at most half the drain deadline), and
// gracefully shut both HTTP servers down so in-flight requests finish
// within the drain deadline. Requests still open past the deadline are
// cut off. Call it once.
func (d *Daemon) Shutdown() {
	d.sched.SetDraining(true)
	close(d.stop)
	<-d.loopDone
	ctx, cancel := context.WithTimeout(context.Background(), d.cfg.Drain)
	defer cancel()
	d.awaitQuiet(d.cfg.Drain / 2)
	for _, srv := range []*http.Server{d.schedSrv, d.dmSrv} {
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain deadline passed, closing: %v", err)
			if cerr := srv.Close(); cerr != nil {
				log.Printf("close: %v", cerr)
			}
		}
	}
}

// awaitQuiet returns once no connection has been accepted for
// quietPeriod, or after limit.
func (d *Daemon) awaitQuiet(limit time.Duration) {
	deadline := d.clock().Add(limit)
	for {
		wake := time.Unix(0, d.lastConn.Load()).Add(quietPeriod)
		if wake.After(deadline) {
			wake = deadline
		}
		wait := wake.Sub(d.clock())
		if wait <= 0 {
			return
		}
		t := time.NewTimer(wait)
		<-t.C
	}
}
