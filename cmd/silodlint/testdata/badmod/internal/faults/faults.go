// Package faults is a deliberately non-conforming fixture for the
// silodlint driver tests: it sits in both the virtual-time and the
// daemon-reachable package lists, and breaks the wallclock and errflow
// rules exactly once each.
package faults

import (
	"errors"
	"time"
)

// Stamp breaks the wallclock rule inside internal/faults: fault events
// must fire on virtual time, never the machine clock.
func Stamp() time.Time {
	return time.Now()
}

// Swallow breaks errflow: the schedule-validation error is discarded.
func Swallow() {
	_ = errors.New("infeasible schedule")
}
