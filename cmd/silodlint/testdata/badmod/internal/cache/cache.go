// Package cache is a deliberately non-conforming fixture for the
// silodlint driver tests: it sits in a daemon-reachable package path
// and breaks each concurrency-safety rule exactly once.
package cache

import (
	"errors"
	"sync"
)

// counter holds a guarded field for the lockcheck violation.
type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// Peek breaks lockcheck: reads n without holding mu.
func (c *counter) Peek() int {
	return c.n
}

// drop breaks errflow: the error return is discarded.
func drop() {
	_ = errors.New("lost")
}
