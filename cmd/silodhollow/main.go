// Command silodhollow drives the kubemark-style hollow-node load
// harness: a real SchedulerServer under thousands of synthetic
// heartbeating nodes and a synthetic job trace, with allocation pushes
// landing in a digesting sink instead of a data plane. It reports the
// control plane's round-latency percentiles and rounds/sec.
//
//	silodhollow -nodes 10000 -jobs 1000000 -rounds 200 -seed 42
//	silodhollow -nodes 1000 -jobs 50000 -out hollow.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/hollow"
	"repro/internal/policy"
	"repro/internal/unit"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "silodhollow:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("silodhollow", flag.ContinueOnError)
	nodes := fs.Int("nodes", 10_000, "hollow heartbeating nodes")
	gpus := fs.Int("gpus", 4, "GPUs per hollow node")
	cache := fs.String("cache", "512GiB", "cache per hollow node")
	jobs := fs.Int("jobs", 1_000_000, "total synthetic jobs over the run")
	datasets := fs.Int("datasets", 512, "distinct datasets")
	rounds := fs.Int("rounds", 200, "scheduling rounds to drive")
	jobRounds := fs.Int("job-rounds", 12, "progress reports before a job completes")
	scheduler := fs.String("scheduler", "FIFO", "scheduling policy (FIFO, SJF, Gavel)")
	system := fs.String("system", "SiloD", "cache system (SiloD, Alluxio, CoorDL, Quiver)")
	seed := fs.Int64("seed", 42, "trace seed")
	out := fs.String("out", "", "write the result as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	kind, err := policy.ParseSchedulerKind(*scheduler)
	if err != nil {
		return err
	}
	cs, err := policy.ParseCacheSystem(*system)
	if err != nil {
		return err
	}
	perNode, err := unit.ParseBytes(*cache)
	if err != nil {
		return fmt.Errorf("-cache: %w", err)
	}
	cfg := hollow.Config{
		Nodes:        *nodes,
		GPUsPerNode:  *gpus,
		CachePerNode: perNode,
		Jobs:         *jobs,
		Datasets:     *datasets,
		Rounds:       *rounds,
		JobRounds:    *jobRounds,
		Scheduler:    kind,
		System:       cs,
		Seed:         *seed,
	}
	res, err := hollow.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "hollow run: %d nodes x %d GPUs, %d jobs (%d completed), %d rounds, %s/%s, seed %d\n",
		res.Nodes, *gpus, res.Jobs, res.Completed, res.Rounds, kind, cs, *seed)
	fmt.Fprintf(w, "round latency: p50 %v  p90 %v  p99 %v  max %v\n",
		res.RoundLatency.P50, res.RoundLatency.P90, res.RoundLatency.P99, res.RoundLatency.Max)
	fmt.Fprintf(w, "throughput: %.1f rounds/sec (%.2fs scheduling over %d rounds)\n",
		res.RoundsPerSec, res.TotalSeconds, res.Rounds)
	fmt.Fprintf(w, "push digest: %s\n", res.Digest)
	if *out != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
