package policy

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/simrng"
	"repro/internal/unit"
)

func benchJobs(n int) []core.JobView {
	rng := simrng.New(7)
	jobs := make([]core.JobView, n)
	for i := range jobs {
		size := unit.Bytes(rng.Uniform(100, 1500)) * unit.GB
		jobs[i] = core.JobView{
			ID:      string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260)),
			NumGPUs: []int{1, 2, 4, 8}[rng.Intn(4)],
			Profile: estimator.JobProfile{
				IdealThroughput: unit.Bandwidth(rng.Uniform(2, 300)) * unit.MBps,
				DatasetSize:     size,
			},
			DatasetKey:     "ds-" + string(rune('a'+i)),
			DatasetSize:    size,
			RemainingBytes: 10 * size,
			Running:        true,
		}
	}
	return jobs
}

// BenchmarkMaxMinStorage times one long-lived solver, the way Gavel
// holds it: after the first call the workspace is warm and a solve
// allocates nothing. The cache is a tenth of a TiB per job, small
// enough that neither size fits every dataset at the first λ, so each
// call bisects. probes/op counts the bisections' feasibility verdicts,
// splits/op the full splits (allocate's included) and evals/op the
// demand sums evaluated.
func BenchmarkMaxMinStorage(b *testing.B) {
	for _, n := range []int{200, 1000} {
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			jobs := benchJobs(n)
			var s MaxMinSolver
			cache := unit.TiB(float64(n) / 10)
			s.Storage(cache, unit.GBpsOf(4), jobs)
			probes, splits, evals := s.probes, s.splits, s.evals
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Storage(cache, unit.GBpsOf(4), jobs)
			}
			b.ReportMetric(float64(s.probes-probes)/float64(b.N), "probes/op")
			b.ReportMetric(float64(s.splits-splits)/float64(b.N), "splits/op")
			b.ReportMetric(float64(s.evals-evals)/float64(b.N), "evals/op")
		})
	}
}

func BenchmarkGreedyAllocate(b *testing.B) {
	jobs := benchJobs(200)
	c := core.Cluster{GPUs: 400, Cache: unit.TiB(100), RemoteIO: unit.GBpsOf(4)}
	g := &GreedyAllocator{}
	var a core.Assignment
	running := positions(0, len(jobs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset(len(jobs))
		for j := range jobs {
			a.GPUs[j] = jobs[j].NumGPUs
		}
		g.AllocateStorage(c, jobs, running, &a)
	}
}

func BenchmarkGavelAssign(b *testing.B) {
	jobs := benchJobs(200)
	g := &Gavel{Enhanced: true}
	c := core.Cluster{GPUs: 400, Cache: unit.TiB(100), RemoteIO: unit.GBpsOf(4)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Assign(c, unit.Time(i), jobs)
	}
}

// BenchmarkFIFOAssignSteadyState measures the per-round allocation cost
// of repeated solves over an unchanged job set — the pattern the
// simulators produce between arrivals. The recycled scratch Assignment
// should keep per-round map allocations near zero.
func BenchmarkFIFOAssignSteadyState(b *testing.B) {
	jobs := benchJobs(200)
	f := &FIFO{Storage: &GreedyAllocator{}}
	c := core.Cluster{GPUs: 400, Cache: unit.TiB(100), RemoteIO: unit.GBpsOf(4)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Assign(c, unit.Time(i), jobs)
	}
}

// BenchmarkSJFAssignSteadyState is the SJF-enhanced analogue.
func BenchmarkSJFAssignSteadyState(b *testing.B) {
	jobs := benchJobs(200)
	s := &SJF{Enhanced: true}
	c := core.Cluster{GPUs: 400, Cache: unit.TiB(100), RemoteIO: unit.GBpsOf(4)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Assign(c, unit.Time(i), jobs)
	}
}
