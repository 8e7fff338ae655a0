package main

import (
	"sort"
	"time"

	"repro/internal/stats"
)

// The hosts this benchmark runs on are small shared VMs whose vCPUs
// lose 0-30 % of their time to neighbours, in episodes that last from
// seconds to minutes: longer than a run, so no amount of repetition
// inside a run averages them out, and larger than any bound the
// benchmark could usefully set. The calibrator measures that loss
// while the workload runs. Between operations it times a fixed,
// allocation-free kernel (fill, sort, map updates: the same kind of
// work the scheduler does) that takes kernelRefMS on an undisturbed
// reference host. The run's host speed is kernelRefMS over the mean
// kernel time, and the closed-loop workloads (sim-*, cp-*) report
// their times multiplied by it: milliseconds of an undisturbed
// reference host. Stolen time is additive, so means, not medians, are
// what scale with it.

// kernelRefMS is the kernel's time on the reference host (2-core Xeon
// 2.1 GHz VM) when nothing disturbs it: the median of 3 000 samples
// taken back to back in a quiet minute (their floor is 3.50).
const kernelRefMS = 3.80

type calibrator struct {
	ints    []int
	counts  map[int]int
	samples []float64 // ms per kernel call
	sink    int
}

func newCalibrator() *calibrator {
	return &calibrator{ints: make([]int, 50_000), counts: make(map[int]int, 1<<12)}
}

// sample runs the kernel n times.
func (c *calibrator) sample(n int) {
	for ; n > 0; n-- {
		began := time.Now()
		x := uint32(12345)
		for i := range c.ints {
			x = x*1664525 + 1013904223
			c.ints[i] = int(x >> 8)
		}
		sort.Ints(c.ints)
		clear(c.counts)
		for i, v := range c.ints[:20_000] {
			c.counts[v&0xfff] += i
		}
		c.sink += len(c.counts) + c.ints[7]
		c.samples = append(c.samples, time.Since(began).Seconds()*1e3)
	}
}

// speed is the host's speed during the run relative to the undisturbed
// reference host: 1 there, 0.8 when a fifth of the CPU time went
// elsewhere. Without samples it is 1.
func (c *calibrator) speed() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return kernelRefMS / stats.Mean(c.samples)
}
