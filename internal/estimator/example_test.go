package estimator_test

import (
	"fmt"

	"repro/internal/estimator"
	"repro/internal/unit"
)

// ExampleJobProfile_Perf evaluates the paper's Eq. 4 for ResNet-50 on
// ImageNet-1k under a few storage allocations.
func ExampleJobProfile_Perf() {
	p := estimator.JobProfile{
		IdealThroughput: unit.MBpsOf(114), // f* on one V100
		DatasetSize:     unit.GiB(143),    // ImageNet-1k
	}
	for _, frac := range []float64{0, 0.5, 1} {
		r := estimator.Resources{
			Cache:    unit.Bytes(frac * float64(p.DatasetSize)),
			RemoteIO: unit.MBpsOf(40),
		}
		fmt.Printf("cache %3.0f%%: %s\n", frac*100, p.Perf(r))
	}
	// Output:
	// cache   0%: 40.00MB/s
	// cache  50%: 80.00MB/s
	// cache 100%: 114.00MB/s
}
