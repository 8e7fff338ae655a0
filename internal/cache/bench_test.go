package cache

import (
	"testing"

	"repro/internal/simrng"
	"repro/internal/unit"
)

func BenchmarkQuotaPoolAccess(b *testing.B) {
	p := NewQuotaPool(unit.TiB(2), simrng.New(1))
	const blocks = 32768
	p.Register("ds", blocks, 64*unit.MB)
	p.SetQuota("ds", unit.TiB(1))
	rng := simrng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Access("ds", BlockID(rng.Intn(blocks))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLRUPoolAccess(b *testing.B) {
	p := NewLRUPool(unit.TiB(1))
	const blocks = 32768
	p.Register("ds", blocks, 64*unit.MB)
	rng := simrng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Access("ds", BlockID(rng.Intn(blocks))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheLRU solves one 200-stream instance cold (no hint) and
// warm (a hint 0.1 % off τ, as the engine's previous solve gives) and
// reports the occupancy sums each solve takes.
func BenchmarkCheLRU(b *testing.B) {
	streams := make([]FluidStream, 200)
	rng := simrng.New(3)
	for i := range streams {
		streams[i] = FluidStream{
			Size: unit.Bytes(rng.Uniform(50, 1500)) * unit.GB,
			Rate: unit.Bandwidth(rng.Uniform(2, 300)) * unit.MBps,
		}
	}
	var w CheWork
	hits, tau := CheLRUInto(nil, unit.TiB(24), streams, 0, &w)
	for _, bc := range []struct {
		name string
		hint float64
	}{{"cold", 0}, {"warm", tau * 1.001}} {
		b.Run(bc.name, func(b *testing.B) {
			evals := 0
			for i := 0; i < b.N; i++ {
				hits, _ = CheLRUInto(hits, unit.TiB(24), streams, bc.hint, &w)
				evals += w.evals
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
		})
	}
}

func BenchmarkBitsetSetTest(b *testing.B) {
	bs := NewBitset(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.Set(i & (1<<20 - 1))
		bs.Test((i * 7) & (1<<20 - 1))
	}
}
