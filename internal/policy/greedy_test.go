package policy

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/tenant"
	"repro/internal/unit"
)

// greedyInstance is refInstance (shared datasets, one job, one dataset,
// zero cache, zero remote IO, warm caches, no jobs) with a random SLO
// class on every other trial, so the weighted efficiency sums and the
// weighted water-fill run too. Some trials also carry effective caches
// larger than their dataset, or a remote-IO capacity so small that the
// investment pot never reaches its spending threshold.
func greedyInstance(rng *rand.Rand, trial int) (core.Cluster, []core.JobView) {
	c, _, jobs := refInstance(rng, trial)
	if trial%2 == 1 {
		slos := []tenant.SLOClass{tenant.Standard, tenant.Critical, tenant.Sheddable}
		for i := range jobs {
			jobs[i].SLO = slos[rng.Intn(len(slos))]
		}
	}
	if trial%3 == 2 {
		for i := range jobs {
			if rng.Intn(4) == 0 {
				jobs[i].EffectiveCached = jobs[i].DatasetSize * 3 / 2
			}
		}
	}
	if trial%11 == 0 {
		c.RemoteIO = unit.Bandwidth(rng.Float64() * 1e-9)
	}
	return c, jobs
}

// TestGreedyMatchesReference runs long-lived greedy-path policies and
// allocators over 700 random instances and requires every GPU grant,
// quota and remote-IO grant to equal the map-based reference
// (greedy_ref_test.go) bit for bit: Algorithm 2 under each ablation
// flag and with PrefetchQueued, SJF enhanced and over the baseline
// caches, and FIFO over SiloD, Quiver and CoorDL.
func TestGreedyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	flags := []GreedyAllocator{
		{},
		{WholeDatasetsOnly: true},
		{NoHysteresis: true},
		{PlainFairIO: true},
		{PrefetchQueued: true},
	}
	allocs := make([]*GreedyAllocator, len(flags))
	refAllocs := make([]refGreedyAllocator, len(flags))
	for i, f := range flags {
		allocs[i] = &GreedyAllocator{WholeDatasetsOnly: f.WholeDatasetsOnly, NoHysteresis: f.NoHysteresis,
			PlainFairIO: f.PlainFairIO, PrefetchQueued: f.PrefetchQueued}
		refAllocs[i] = refGreedyAllocator{WholeDatasetsOnly: f.WholeDatasetsOnly, NoHysteresis: f.NoHysteresis,
			PlainFairIO: f.PlainFairIO, PrefetchQueued: f.PrefetchQueued}
	}
	type pair struct {
		name string
		got  core.Policy
		want interface {
			Assign(c core.Cluster, now unit.Time, jobs []core.JobView) refAssignment
		}
	}
	policies := []pair{
		{"sjf+silod", &SJF{Enhanced: true}, &refSJF{Enhanced: true}},
		{"sjf+quiver", &SJF{Storage: NewQuiverAllocator(0.05, 3)}, &refSJF{Storage: refNewQuiverAllocator(0.05, 3)}},
		{"sjf+coordl", &SJF{Storage: CoorDLAllocator{}}, &refSJF{Storage: refCoorDLAllocator{}}},
		{"fifo+silod", &FIFO{Storage: &GreedyAllocator{}}, &refFIFO{Storage: refGreedyAllocator{}}},
		{"fifo+silod-prefetch", &FIFO{Storage: &GreedyAllocator{PrefetchQueued: true}},
			&refFIFO{Storage: refGreedyAllocator{PrefetchQueued: true}}},
		{"fifo+quiver", &FIFO{Storage: NewQuiverAllocator(0.05, 5)}, &refFIFO{Storage: refNewQuiverAllocator(0.05, 5)}},
		{"fifo+coordl", &FIFO{Storage: CoorDLAllocator{}}, &refFIFO{Storage: refCoorDLAllocator{}}},
	}
	for trial := 0; trial < 700; trial++ {
		c, jobs := greedyInstance(rng, trial)
		split := 0
		if len(jobs) > 0 {
			split = rng.Intn(len(jobs) + 1)
		}
		running, queued := positions(0, split), positions(split, len(jobs))
		for i := range flags {
			want := newRefAssignment()
			refAllocs[i].AllocateStorageQueued(c, jobs[:split], jobs[split:], &want)
			var got core.Assignment
			got.Reset(len(jobs))
			allocs[i].AllocateStorageQueued(c, jobs, running, queued, &got)
			if err := sameAs(want, got, jobs); err != nil {
				t.Fatalf("trial %d (%d running, %d queued) %+v: product vs reference: %v",
					trial, len(running), len(queued), flags[i], err)
			}
		}
		for _, p := range policies {
			want := p.want.Assign(c, 0, jobs)
			if err := sameAs(want, p.got.Assign(c, 0, jobs), jobs); err != nil {
				t.Fatalf("trial %d (%d jobs) %s: product vs reference: %v", trial, len(jobs), p.name, err)
			}
		}
	}
}

// TestGreedyAssignAllocatesNothing: after one warm-up call, FIFO over
// Algorithm 2 with prefetch planning, enhanced SJF, and FIFO over
// Quiver perform no heap allocation per Assign.
func TestGreedyAssignAllocatesNothing(t *testing.T) {
	c := core.Cluster{GPUs: 400, Cache: unit.TiB(100), RemoteIO: unit.GBpsOf(4)}
	for name, jobs := range map[string][]core.JobView{
		"benchJobs(200)": benchJobs(200),
		"shared":         sharedBenchJobs(200),
	} {
		for _, p := range []core.Policy{
			&FIFO{Storage: &GreedyAllocator{PrefetchQueued: true}},
			&SJF{Enhanced: true},
			&FIFO{Storage: NewQuiverAllocator(0.05, 1)},
		} {
			allocs := testing.AllocsPerRun(5, func() { p.Assign(c, unit.Time(3600), jobs) })
			if allocs != 0 {
				t.Errorf("%s %s: %v allocations per Assign, want 0", name, p.Name(), allocs)
			}
		}
	}
}

// BenchmarkGreedyAssign times the greedy-path policies on a warm
// workspace, the way the simulator holds them.
func BenchmarkGreedyAssign(b *testing.B) {
	c := core.Cluster{GPUs: 400, Cache: unit.TiB(100), RemoteIO: unit.GBpsOf(4)}
	jobs := sharedBenchJobs(1000)
	for _, p := range []core.Policy{
		&FIFO{Storage: &GreedyAllocator{PrefetchQueued: true}},
		&SJF{Enhanced: true},
		&FIFO{Storage: NewQuiverAllocator(0.05, 1)},
	} {
		b.Run(fmt.Sprintf("%s/n=%d", p.Name(), len(jobs)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Assign(c, unit.Time(3600), jobs)
			}
		})
	}
}
