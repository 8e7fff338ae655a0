// Package runner executes independent experiment arms across a bounded
// worker pool without giving up the repository's same-seed →
// byte-identical guarantee.
//
// Determinism design: parallel execution can only reorder *work*, never
// *results*. Three invariants make that true:
//
//  1. Seeds are pre-derived. Every arm's seed is computed up front from
//     (Options.Seed, arm index) via simrng.ArmSeed — a pure function —
//     so no arm's randomness depends on scheduling order or worker
//     count.
//  2. Results land in pre-indexed slots. Arm i writes results[i] and
//     nothing else; after the pool drains, the slice reads exactly as
//     if the arms had run in index order.
//  3. Errors resolve to the lowest index. A sequential loop stops at
//     the first failing arm; the pool runs arms out of order, so it
//     collects per-slot errors and reports the lowest-indexed one,
//     matching the error a sequential run would have surfaced.
//
// Arms must be self-contained: they may share read-only inputs (job
// specs, cluster descriptions) but must not mutate shared state. The
// simulator already satisfies this — sim.Run copies its spec slice and
// every arm builds its own policy, metrics, and RNGs from its seed.
package runner

import (
	"runtime"
	"sync"

	"repro/internal/simrng"
)

// Options configure a pool run.
type Options struct {
	// Seed is the root seed that arm seeds are derived from.
	Seed int64
	// Workers bounds the pool size; 0 means GOMAXPROCS. 1 disables the
	// pool entirely: arms run inline, in index order, on the calling
	// goroutine. That is the debugging opt-out (silodsim -parallel=1)
	// and the reference order that parallel runs are tested
	// byte-identical against.
	Workers int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Arm identifies one unit of work handed to the arm function.
type Arm struct {
	// Index is the arm's position in [0, n); results[Index] receives
	// its return value.
	Index int
	// Seed is the arm's private seed, derived from (root seed, Index).
	// Arms that need their own randomness must use it (or a
	// simrng.New(Seed).Split(...) child) rather than sharing an RNG.
	Seed int64
}

// Map runs n arms through the pool and returns their results in arm
// order. The result slice is byte-for-byte identical to a one-worker
// run with the same Options.Seed; on error it returns the
// lowest-indexed arm error. Panics in arm functions propagate to the
// caller.
func Map[T any](o Options, n int, run func(Arm) (T, error)) ([]T, error) {
	if n < 0 {
		panic("runner: negative arm count")
	}
	results := make([]T, n)
	if n <= 1 || o.workers() == 1 {
		for i := 0; i < n; i++ {
			r, err := run(Arm{Index: i, Seed: simrng.ArmSeed(o.Seed, i)})
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	w := o.workers()
	if w > n {
		w = n
	}
	errs := make([]error, n)
	panics := make([]any, w)
	idx := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Workers exit when idx closes; a panicking arm is recorded
			// and re-raised on the caller after the pool drains so no
			// goroutine leaks and no panic crosses a goroutine boundary.
			defer func() {
				if r := recover(); r != nil {
					panics[worker] = r
					for range idx { // drain so the feeder never blocks
					}
				}
			}()
			for i := range idx {
				r, err := run(Arm{Index: i, Seed: simrng.ArmSeed(o.Seed, i)})
				if err != nil {
					errs[i] = err
					continue
				}
				results[i] = r
			}
		}(k)
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
