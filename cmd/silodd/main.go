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
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/tenant"
	"repro/internal/unit"
)

func main() {
	log.SetPrefix("silodd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "silodd:", err)
		os.Exit(1)
	}
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
	cfg := controlplane.DaemonConfig{
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

	d, err := controlplane.NewDaemon(cfg, time.Now, func(_ time.Duration, err error) {
		if err != nil {
			log.Printf("scheduling round failed: %v", err)
		}
	})
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)
	return d.Wait(sig)
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
				if t.Quota.GPUs, err = strconv.Atoi(val); err != nil || t.Quota.GPUs < 0 {
					return nil, fmt.Errorf("-tenants entry %q: gpus %q is not a count >= 0", entry, val)
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
