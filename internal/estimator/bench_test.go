package estimator

import (
	"testing"

	"repro/internal/unit"
)

func BenchmarkPerf(b *testing.B) {
	p := JobProfile{IdealThroughput: unit.MBpsOf(114), DatasetSize: unit.GiB(143)}
	r := Resources{Cache: unit.GiB(70), RemoteIO: unit.MBpsOf(40)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Perf(r)
	}
}
