// Quickstart: the SiloD performance estimator and one joint scheduling
// round.
//
// It walks through the paper's core ideas on a 2-GPU cluster: the
// closed-form SiloDPerf estimator (Eq. 4), cache efficiency (Eq. 5),
// and a Gavel max-min round that allocates GPUs, cache and remote IO
// together (Algorithm 1).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/policy"
	"repro/internal/unit"
	"repro/internal/workload"
)

// stdout is where main prints; the golden test swaps it for a buffer.
var stdout io.Writer = os.Stdout

func main() {
	// A ResNet-50 job training ImageNet-22k on one V100: its ideal
	// data-consumption rate f* and dataset size d are all SiloD needs.
	rn50, err := workload.ModelByName("ResNet-50")
	if err != nil {
		log.Fatal(err)
	}
	im22k, err := workload.DatasetByName("ImageNet-22k")
	if err != nil {
		log.Fatal(err)
	}
	profile := estimator.JobProfile{
		IdealThroughput: rn50.IdealIOPerGPU,
		DatasetSize:     im22k.Size,
	}

	fmt.Fprintln(stdout, "== SiloDPerf (Eq. 4): min(f*, b / (1 - c/d)) ==")
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		r := estimator.Resources{
			Cache:    unit.Bytes(frac * float64(im22k.Size)),
			RemoteIO: unit.MBpsOf(50),
		}
		fmt.Fprintf(stdout, "  cache %3.0f%% of dataset, 50 MB/s remote -> %s (IO-bound: %v)\n",
			frac*100, profile.Perf(r), profile.IOBound(r))
	}

	fmt.Fprintln(stdout, "\n== Cache efficiency (Eq. 5): remote IO saved per GB of cache ==")
	for _, j := range workload.Figure6Jobs()[:4] {
		fmt.Fprintf(stdout, "  %-15s on %-12s: %.2f MB/s per GB\n",
			j.Model.Name, j.Dataset.Name, j.CacheEfficiency())
	}

	// One joint scheduling round: two jobs share a 2-GPU cluster with
	// 1.4 TB cache and a 50 MB/s remote link (the Figure 4 setting).
	fmt.Fprintln(stdout, "\n== One Gavel(max-min)+SiloD scheduling round ==")
	cluster := core.Cluster{GPUs: 2, Cache: unit.TiB(1.4), RemoteIO: unit.MBpsOf(50)}
	jobs := []core.JobView{
		{
			ID: "job-0", NumGPUs: 1, Profile: profile,
			DatasetKey: "imagenet22k-a", DatasetSize: im22k.Size,
			RemainingBytes: 10 * im22k.Size,
		},
		{
			ID: "job-1", NumGPUs: 1, Profile: profile,
			DatasetKey: "imagenet22k-b", DatasetSize: im22k.Size,
			RemainingBytes: 10 * im22k.Size,
		},
	}
	pol, err := policy.Build(policy.GavelKind, policy.SiloD, 1)
	if err != nil {
		log.Fatal(err)
	}
	framework := &core.Framework{Policy: pol}
	assignment, err := framework.Schedule(cluster, 0, jobs)
	if err != nil {
		log.Fatal(err)
	}
	for i, j := range jobs {
		fmt.Fprintf(stdout, "  %s: %d GPUs, cache %v, remote IO %v\n",
			j.ID, assignment.GPUs[i],
			assignment.CacheQuota[j.DatasetKey], assignment.RemoteIO[i])
	}
}
