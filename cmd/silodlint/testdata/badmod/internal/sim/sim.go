// Package sim is a deliberately non-conforming fixture module for the
// silodlint driver tests: it sits in a virtual-time package path and
// reads the wall clock.
package sim

import "time"

// Tick breaks the wallclock rule inside internal/sim.
func Tick() time.Time {
	return time.Now()
}
