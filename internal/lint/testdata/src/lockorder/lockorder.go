// Package lockorder exercises the global lock-graph analyzer: an A↔B
// inversion, a consistent C→D pair (accepted), re-entry on the same
// lock type through a call chain (self-cycle), and a P↔Q inversion one
// side of which passes through mutual recursion.
package lockorder

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

// ab nests in A→B order.
func ab(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `lock order cycle: lockorder.B.mu acquired while lockorder.A.mu is held`
	defer b.mu.Unlock()
}

// ba nests in B→A order: the inversion.
func ba(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock() // want `lock order cycle: lockorder.A.mu acquired while lockorder.B.mu is held`
	defer a.mu.Unlock()
}

type C struct{ mu sync.Mutex }
type D struct{ mu sync.Mutex }

// cd and cd2 agree on C→D: accepted.
func cd(c *C, d *D) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
}

func cd2(c *C, d *D) {
	c.mu.Lock()
	d.mu.Lock()
	d.mu.Unlock()
	c.mu.Unlock()
}

// E re-enters its own lock type through a call chain.
type E struct{ mu sync.Mutex }

func (e *E) poke(other *E) {
	e.mu.Lock()
	defer e.mu.Unlock()
	other.grab() // want `lock order cycle: lockorder.E.mu acquired while an instance of lockorder.E.mu is already held`
}

func (e *E) grab() {
	e.mu.Lock()
	e.mu.Unlock()
}

var muP, muQ sync.Mutex

// loopA and loopB recurse into each other, and loopA takes muP only
// after the recursive call: both members of the cycle acquire muP, so
// the closure must not hand loopB a partial set because loopA was
// still being closed when loopB was reached.
func loopA(n int) {
	if n > 0 {
		loopB(n - 1)
	}
	takeP()
}

func loopB(n int) {
	loopA(n)
}

func takeP() {
	muP.Lock()
	muP.Unlock()
}

// holdQ reaches muP only through loopB; pThenQ nests the other way.
func holdQ() {
	muQ.Lock()
	defer muQ.Unlock()
	loopB(1) // want `lock order cycle: lockorder\.muP acquired while lockorder\.muQ is held`
}

func pThenQ() {
	muP.Lock()
	defer muP.Unlock()
	muQ.Lock() // want `lock order cycle: lockorder\.muQ acquired while lockorder\.muP is held`
	muQ.Unlock()
}
