// Command silodd runs the SiloD control plane: the data-manager service
// (cache + remote IO enforcement, Table 3 APIs) and the scheduler
// service (joint compute/storage allocation) in one process.
//
//	silodd -gpus 96 -cache 24TB -remote 1GB -scheduler Gavel \
//	       -dm-addr :7070 -sched-addr :7071 -interval 10s \
//	       -queue 256 -batch 32 \
//	       -tenants acme:critical,gamma:sheddable:gpus=3:egress=100MB
//
// With -queue N the scheduler runs in online serving mode: submissions
// land in a bounded, SLO-classed admission queue and the round loop
// drains them in batches; overload sheds low tiers with 503 +
// Retry-After instead of wedging the scheduler. SIGTERM drains
// gracefully — new submissions get a clean 503 while in-flight
// requests finish, bounded by -drain.
//
// Drive it with silodctl; load it with silodload.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/datamgr"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simrng"
	"repro/internal/tenant"
	"repro/internal/unit"
)

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

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "silodd:", err)
		os.Exit(1)
	}
}

// daemonConfig is everything run parses out of the flags.
type daemonConfig struct {
	Cluster   core.Cluster
	Scheduler policy.SchedulerKind
	System    policy.CacheSystem
	Seed      int64
	DMAddr    string
	SchedAddr string
	Interval  time.Duration
	Drain     time.Duration
	Queue     admission.Config // Capacity 0 = synchronous submits
	Batch     int
	Tenants   *tenant.Registry
}

// daemon is the running process: two HTTP listeners and (in serving
// mode) the single scheduler round-loop goroutine.
type daemon struct {
	cfg      daemonConfig
	sched    *controlplane.SchedulerServer
	dmSrv    *http.Server
	schedSrv *http.Server
	errc     chan error    // listener exit errors
	stop     chan struct{} // closes to stop the round loop
	loopDone chan struct{} // closes when the round loop exits
	lastConn *atomic.Int64 // wall-clock ns of the newest accepted connection
}

func run(args []string) error {
	fs := flag.NewFlagSet("silodd", flag.ContinueOnError)
	gpus := fs.Int("gpus", 96, "cluster GPUs")
	cacheStr := fs.String("cache", "24TB", "cluster cache capacity")
	remoteStr := fs.String("remote", "1GB", "remote IO capacity (bytes/sec)")
	scheduler := fs.String("scheduler", "FIFO", "scheduling policy: FIFO | SJF | Gavel")
	system := fs.String("system", "SiloD", "cache system: SiloD | Alluxio | CoorDL | Quiver")
	dmAddr := fs.String("dm-addr", ":7070", "data manager listen address")
	schedAddr := fs.String("sched-addr", ":7071", "scheduler listen address")
	interval := fs.Duration("interval", 0, "scheduling loop period (0 = on demand via POST /v1/schedule; forced to 1s in queue mode)")
	drain := fs.Duration("drain", 5*time.Second, "graceful shutdown deadline for in-flight requests")
	queueCap := fs.Int("queue", 0, "admission queue capacity (0 = synchronous submits)")
	highWater := fs.Int("high-water", 0, "queue depth where the sheddable tier sheds (0 = capacity/4)")
	stdWater := fs.Int("std-water", 0, "queue depth where the standard tier sheds (0 = capacity/2)")
	batch := fs.Int("batch", 0, "queued submissions drained per round (0 = all)")
	seed := fs.Int64("seed", 42, "seed for stochastic policy elements")
	tenantsSpec := fs.String("tenants", "",
		"tenant registry: comma-separated id:class[:gpus=N][:cache=SIZE][:egress=BW] entries, e.g. "+
			"acme:critical,gamma:sheddable:gpus=3:egress=100MB (empty = untenanted flat pool)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cacheBytes, err := unit.ParseBytes(*cacheStr)
	if err != nil {
		return err
	}
	remoteBW, err := unit.ParseBandwidth(*remoteStr)
	if err != nil {
		return err
	}
	k, err := policy.ParseSchedulerKind(*scheduler)
	if err != nil {
		return err
	}
	cs, err := policy.ParseCacheSystem(*system)
	if err != nil {
		return err
	}
	reg, err := parseTenants(*tenantsSpec)
	if err != nil {
		return err
	}
	cfg := daemonConfig{
		Cluster:   core.Cluster{GPUs: *gpus, Cache: cacheBytes, RemoteIO: remoteBW},
		Scheduler: k,
		System:    cs,
		Seed:      *seed,
		DMAddr:    *dmAddr,
		SchedAddr: *schedAddr,
		Interval:  *interval,
		Drain:     *drain,
		Batch:     *batch,
		Tenants:   reg,
	}
	if *queueCap > 0 {
		hw, sw := *highWater, *stdWater
		if hw <= 0 {
			hw = *queueCap / 4
		}
		if sw <= 0 {
			sw = *queueCap / 2
		}
		cfg.Queue = admission.Config{Capacity: *queueCap, HighWater: hw, StandardWater: sw}
	}

	d, err := newDaemon(cfg)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)
	return d.wait(sig)
}

// newDaemon builds the control plane, binds both listeners, and starts
// serving. Callers own shutdown (via wait or shutdown).
func newDaemon(cfg daemonConfig) (*daemon, error) {
	pol, err := policy.BuildTenant(cfg.Scheduler, cfg.System, cfg.Seed, cfg.Tenants)
	if err != nil {
		return nil, err
	}
	mgr := datamgr.New(cfg.Cluster.Cache, cfg.Cluster.RemoteIO, cfg.Seed, nil)
	mgr.EnableMetrics(metrics.NewRegistry("datamgr"))
	dmSrv := controlplane.NewDataManagerServer(mgr)
	sched, err := controlplane.NewSchedulerServer(cfg.Cluster, pol, controlplane.LocalDataPlane{Mgr: mgr}, time.Now)
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
			log.Printf("silodd: closing data-manager listener: %v", cerr)
		}
		return nil, err
	}
	lastConn := new(atomic.Int64)
	d := &daemon{
		cfg:      cfg,
		sched:    sched,
		dmSrv:    newServer(dmSrv, lastConn),
		schedSrv: newServer(sched, lastConn),
		errc:     make(chan error, 2),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
		lastConn: lastConn,
	}
	log.Printf("silodd: data manager listening on %s", dmLn.Addr())
	log.Printf("silodd: scheduler (%s on %s) listening on %s", cfg.Scheduler, cfg.System, schedLn.Addr())
	go serveListener(d.dmSrv, dmLn, d.errc)
	go serveListener(d.schedSrv, schedLn, d.errc)
	go serveRounds(sched, controlplane.ServeConfig{
		Interval: cfg.Interval, Batch: cfg.Batch, RoundDeadline: cfg.Interval,
	}, cfg.Interval, d.stop, d.loopDone)
	return d, nil
}

// newServer wraps a handler with the per-request timeouts; every
// connection it accepts stamps lastConn.
func newServer(h http.Handler, lastConn *atomic.Int64) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		ConnState: func(_ net.Conn, state http.ConnState) {
			if state == http.StateNew {
				lastConn.Store(time.Now().UnixNano())
			}
		},
	}
}

// serveListener runs one HTTP server until it is shut down; the exit
// error (http.ErrServerClosed on a clean shutdown) lands in errc.
func serveListener(srv *http.Server, ln net.Listener, errc chan<- error) {
	errc <- srv.Serve(ln)
}

// serveRounds runs the scheduler's round loop until stop closes, then
// closes done. With no interval (on-demand mode) it only waits for
// stop, so shutdown has one code path either way.
func serveRounds(s *controlplane.SchedulerServer, cfg controlplane.ServeConfig,
	interval time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	if interval <= 0 {
		<-stop
		return
	}
	s.Serve(cfg, stop, func(err error) {
		log.Printf("silodd: scheduling round failed: %v", err)
	})
}

// wait blocks until a listener dies (the error is returned) or a
// shutdown signal arrives (the daemon drains gracefully and wait
// returns nil).
func (d *daemon) wait(sig <-chan os.Signal) error {
	select {
	case err := <-d.errc:
		d.shutdown()
		return err
	case s := <-sig:
		log.Printf("silodd: %v: draining (deadline %v)", s, d.cfg.Drain)
		d.shutdown()
		return nil
	}
}

// shutdown drains the daemon: flip the scheduler to draining (new
// submissions get a clean 503 + Retry-After), stop the round loop, wait
// for the listeners to go quiet (at most half the drain deadline), and
// gracefully shut both HTTP servers down so in-flight requests finish
// within the drain deadline. Requests still open past the deadline are
// cut off.
func (d *daemon) shutdown() {
	d.sched.SetDraining(true)
	close(d.stop)
	<-d.loopDone
	ctx, cancel := context.WithTimeout(context.Background(), d.cfg.Drain)
	defer cancel()
	d.awaitQuiet(d.cfg.Drain / 2)
	for _, srv := range []*http.Server{d.schedSrv, d.dmSrv} {
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("silodd: drain deadline passed, closing: %v", err)
			if cerr := srv.Close(); cerr != nil {
				log.Printf("silodd: close: %v", cerr)
			}
		}
	}
}

// awaitQuiet returns once no connection has been accepted for
// quietPeriod, or after limit.
func (d *daemon) awaitQuiet(limit time.Duration) {
	deadline := time.Now().Add(limit)
	for {
		wake := time.Unix(0, d.lastConn.Load()).Add(quietPeriod)
		if wake.After(deadline) {
			wake = deadline
		}
		if !time.Now().Before(wake) {
			return
		}
		time.Sleep(time.Until(wake))
	}
}

// parseTenants builds a tenant registry from the -tenants flag. Each
// comma-separated entry is id:class followed by optional quota parts
// (gpus=N, cache=SIZE, egress=BW). An empty spec returns nil: the
// untenanted flat pool.
func parseTenants(spec string) (*tenant.Registry, error) {
	if spec == "" {
		return nil, nil
	}
	reg := tenant.NewRegistry()
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("-tenants entry %q: want id:class[:quota...]", entry)
		}
		class, err := tenant.ParseSLO(parts[1])
		if err != nil {
			return nil, fmt.Errorf("-tenants entry %q: %w", entry, err)
		}
		t := tenant.Tenant{ID: parts[0], Class: class}
		for _, q := range parts[2:] {
			key, val, ok := strings.Cut(q, "=")
			if !ok {
				return nil, fmt.Errorf("-tenants entry %q: quota part %q is not key=value", entry, q)
			}
			switch key {
			case "gpus":
				if _, err := fmt.Sscanf(val, "%d", &t.Quota.GPUs); err != nil {
					return nil, fmt.Errorf("-tenants entry %q: gpus %q: %w", entry, val, err)
				}
			case "cache":
				if t.Quota.Cache, err = unit.ParseBytes(val); err != nil {
					return nil, fmt.Errorf("-tenants entry %q: cache %q: %w", entry, val, err)
				}
			case "egress":
				if t.Quota.Egress, err = unit.ParseBandwidth(val); err != nil {
					return nil, fmt.Errorf("-tenants entry %q: egress %q: %w", entry, val, err)
				}
			default:
				return nil, fmt.Errorf("-tenants entry %q: unknown quota %q (want gpus, cache or egress)", entry, key)
			}
		}
		if err := reg.Register(t); err != nil {
			return nil, fmt.Errorf("-tenants: %w", err)
		}
	}
	return reg, nil
}
