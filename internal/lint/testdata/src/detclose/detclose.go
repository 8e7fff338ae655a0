// Package sim is the detclose fixture: simulation roots whose
// transitive call graphs do and do not leak ambient effects, including
// a recursive SCC, interface dispatch, and an audited injection
// boundary.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// RootWall reaches the wall clock two calls down.
// silod:sim-root
func RootWall() time.Duration { // want `simulation root RootWall transitively reaches a wall-clock read \(time\.Now\) outside any silod:inject boundary`
	return elapsed()
}

func elapsed() time.Duration {
	start := time.Now()
	return time.Since(start)
}

// realClock is the audited boundary: the wall-clock effect is supposed
// to cross here (the testbed idiom), so it does not propagate up.
// silod:inject wallclock
func realClock() time.Time {
	return time.Now()
}

// RootInjected is clean: its only clock access goes through the
// annotated injection point.
// silod:sim-root
func RootInjected() time.Time {
	return realClock()
}

// RootRec reaches the global RNG through a recursive pair: recA and
// recB form one SCC, and the summary must still converge and carry the
// effect out of the cycle.
// silod:sim-root
func RootRec(n int) int { // want `simulation root RootRec transitively reaches a global-RNG draw \(math/rand\.Intn\)`
	return recA(n)
}

func recA(n int) int {
	if n <= 0 {
		return rand.Intn(10)
	}
	return recB(n - 1)
}

func recB(n int) int {
	return recA(n - 1)
}

// Emitter is a module-defined interface: calls through it resolve
// against every concrete type in the analyzed packages.
type Emitter interface {
	Emit(m map[string]int)
}

type mapEmitter struct{}

// Emit prints in map-iteration order: the map-order effect.
func (mapEmitter) Emit(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

// RootIface reaches the map-order emission only through dynamic
// dispatch on Emitter.
// silod:sim-root
func RootIface(e Emitter, m map[string]int) { // want `simulation root RootIface transitively reaches a map-order-dependent emission \(fmt\.Println emission\)`
	e.Emit(m)
}

// requiredIO sums in map iteration order: nothing is printed, yet the
// low bits of the result differ run to run (the PR-5 bug class).
func requiredIO(rates map[string]float64) float64 {
	var total float64
	for _, r := range rates {
		total += r
	}
	return total
}

// RootSum reaches the float sum one call down.
// silod:sim-root
func RootSum(rates map[string]float64) float64 { // want `simulation root RootSum transitively reaches a map-order-dependent emission \(float accumulation into total\)`
	return requiredIO(rates)
}

// badInject exercises the annotation grammar check.
// silod:inject
func badInject() { // want `silod:inject needs at least one effect`
}

// helperOnly has the wall-clock effect but is not reachable from any
// root, so it reports nothing on its own.
func helperOnly() time.Time {
	return time.Now()
}
