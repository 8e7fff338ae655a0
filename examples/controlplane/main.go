// Controlplane spins up the full SiloD deployment in one process — the
// data-manager service and the scheduler service on loopback HTTP —
// submits two jobs through the client, runs a scheduling round, streams
// a few block reads through the data manager, and prints the resulting
// allocations and access statistics.
//
//	go run ./examples/controlplane
package main

import (
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/datamgr"
	"repro/internal/policy"
	"repro/internal/unit"
	"repro/internal/workload"
)

func main() {
	// Data manager: 1 TB cache, 200 MB/s egress.
	mgr := datamgr.New(unit.TiB(1), unit.MBpsOf(200), 42, nil)
	dmSrv := httptest.NewServer(controlplane.NewDataManagerServer(mgr))
	defer dmSrv.Close()
	dm := controlplane.NewClient(dmSrv.URL)

	// Scheduler: Gavel max-min with SiloD storage co-design, driving
	// the data manager over HTTP.
	pol, err := policy.Build(policy.GavelKind, policy.SiloD, 42)
	if err != nil {
		log.Fatal(err)
	}
	cluster := core.Cluster{GPUs: 8, Cache: unit.TiB(1), RemoteIO: unit.MBpsOf(200)}
	sched, err := controlplane.NewSchedulerServer(cluster, pol, dm, time.Now)
	if err != nil {
		log.Fatal(err)
	}
	schedSrv := httptest.NewServer(sched)
	defer schedSrv.Close()
	client := controlplane.NewClient(schedSrv.URL)

	// Submit two jobs with profiles from the model catalog.
	submit := func(id, model, ds string, size unit.Bytes, gpus int) {
		m, err := workload.ModelByName(model)
		if err != nil {
			log.Fatal(err)
		}
		spec := workload.JobSpec{ID: id, Model: m,
			Dataset: workload.Dataset{Name: ds, Size: size}, NumGPUs: gpus}
		spec.NumSteps = int64(5 * float64(size) / float64(spec.StepBytesTotal()))
		if err := client.SubmitJob(controlplane.SubmitJobRequest{
			JobID: id, Model: model, Dataset: ds, DatasetSize: size,
			NumGPUs: gpus, IdealThroughput: spec.IdealThroughput(),
			TotalBytes: spec.TotalBytes(),
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("submitted %s (%s on %s, ideal %v)\n", id, model, ds, spec.IdealThroughput())
	}
	submit("rn50", "ResNet-50", "imagenet1k", unit.GiB(143), 1)
	submit("bert", "BERT", "websearch-sample", unit.GiB(600), 4)

	// One scheduling round: GPUs + cache quotas + remote IO, jointly.
	if err := client.TriggerSchedule(); err != nil {
		log.Fatal(err)
	}
	jobs, err := client.ListJobs()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nallocations after one round:")
	for _, j := range jobs {
		fmt.Printf("  %-5s gpus=%d cache=%v remoteIO=%v\n",
			j.JobID, j.GPUs, j.CacheQuota, j.RemoteIO)
	}

	// Stream some reads through the data manager like a FUSE client.
	if err := dm.EpochStart("rn50"); err != nil {
		log.Fatal(err)
	}
	hits := 0
	for pass := 0; pass < 2; pass++ {
		for blk := 0; blk < 8; blk++ {
			r, err := dm.Read("rn50", blk)
			if err != nil {
				log.Fatal(err)
			}
			if r.Hit {
				hits++
			}
		}
		if err := dm.EpochStart("rn50"); err != nil {
			log.Fatal(err)
		}
	}
	st, err := dm.Stats("rn50")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrn50 after two mini-epochs of 8 blocks: hits=%d misses=%d remote=%v effective=%v\n",
		st.HitBlocks, st.MissBlocks, st.RemoteBytes, st.EffectiveCached)

	// The annotations a restarted data manager would recover from.
	ann, err := client.Annotations()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npersisted annotations: %d jobs, %d datasets, %d cache quotas\n",
		len(ann.Jobs), len(ann.Datasets), len(ann.Quotas))
}
