// Package runner is a deliberately non-conforming worker-pool fixture
// for the silodlint driver tests: a pool whose results are read without
// the pool mutex (lockcheck). The real pool in the main module's
// internal/runner does not do that.
package runner

import "sync"

// pool collects its workers' results.
type pool struct {
	mu      sync.Mutex
	results []int // guarded by mu
}

// snapshot breaks lockcheck: reads results without holding mu.
func (p *pool) snapshot() int {
	return len(p.results)
}
