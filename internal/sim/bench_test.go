package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/unit"
	"repro/internal/workload"
)

// benchTrace is a mid-size cluster workload for engine benchmarks.
func benchTrace(b *testing.B) ([]workload.JobSpec, core.Cluster) {
	b.Helper()
	jobs, err := workload.Generate(workload.DefaultTraceConfig(11, 60, 4*unit.Hour))
	if err != nil {
		b.Fatal(err)
	}
	return jobs, core.Cluster{GPUs: 32, Cache: unit.TiB(8), RemoteIO: unit.MBpsOf(400)}
}

func BenchmarkFluidEngine(b *testing.B) {
	jobs, cl := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 11)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(Config{Cluster: cl, Policy: pol, System: policy.SiloD, Engine: Fluid, Seed: 11}, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchEngine(b *testing.B) {
	jobs, cl := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 11)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(Config{Cluster: cl, Policy: pol, System: policy.SiloD, Engine: Batch, Seed: 11}, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFluidJobRates isolates the fluid engine's hottest path: the
// per-integration-step hit-ratio and throughput computation. The
// scratch buffers should keep its slice allocations at zero (the only
// remaining allocations are the bandwidth-division result maps).
func BenchmarkFluidJobRates(b *testing.B) {
	jobs, cl := benchTrace(b)
	if len(jobs) > 32 {
		jobs = jobs[:32]
	}
	s := &fluidSim{engine: engine{cfg: Config{Cluster: cl, System: policy.SiloD}, eff: cl}}
	for _, spec := range jobs {
		j := newJobRT(spec, policy.SiloD)
		j.running = true
		j.gpus = spec.NumGPUs
		j.remoteIO = unit.MBpsOf(10)
		j.effCached = spec.Dataset.Size / 2
		s.jobs = append(s.jobs, j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		running := s.runningJobs()
		s.jobRates(running)
	}
}

func BenchmarkFluidEngineAlluxio(b *testing.B) {
	jobs, cl := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, err := policy.Build(policy.FIFOKind, policy.Alluxio, 11)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(Config{Cluster: cl, Policy: pol, System: policy.Alluxio, Engine: Fluid, Seed: 11}, jobs); err != nil {
			b.Fatal(err)
		}
	}
}
