package policy

import (
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

func BenchmarkMaxMinStorage(b *testing.B) {
	jobs := benchJobs(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(MaxMinSolver).Storage(unit.TiB(100), unit.GBpsOf(4), jobs)
	}
}

func BenchmarkGreedyAllocate(b *testing.B) {
	jobs := benchJobs(200)
	c := core.Cluster{GPUs: 400, Cache: unit.TiB(100), RemoteIO: unit.GBpsOf(4)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := core.NewAssignment()
		for j := range jobs {
			a.GPUs[jobs[j].ID] = jobs[j].NumGPUs
		}
		GreedyAllocator{}.AllocateStorage(c, jobs, &a)
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
	f := &FIFO{Storage: GreedyAllocator{}}
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
