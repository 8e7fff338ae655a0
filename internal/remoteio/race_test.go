package remoteio

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/unit"
)

// TestLedgerConcurrentGrantRelease drives a Ledger the way the data
// manager does under the testbed: concurrent grants (Set), releases
// (Remove), and capacity queries from per-job goroutines. Run under
// -race (make verify); each worker's end state is fixed, so the final
// allocation is deterministic regardless of interleaving.
func TestLedgerConcurrentGrantRelease(t *testing.T) {
	const (
		workers = 8
		rounds  = 200
		share   = 10 * unit.MBps
	)
	l := NewLedger(unit.Bandwidth(workers) * share)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("job%d", w)
			for i := 0; i < rounds; i++ {
				if err := l.Set(id, share); err != nil {
					t.Errorf("%s: %v", id, err)
					return
				}
				_ = l.Get(id)
				_ = ledgerFree(l)
				if i%3 == 0 {
					l.Remove(id)
				}
			}
			// Converge: even workers hold a share, odd workers release.
			if w%2 == 0 {
				if err := l.Set(id, share); err != nil {
					t.Errorf("%s: %v", id, err)
				}
			} else {
				l.Remove(id)
			}
		}(w)
	}
	wg.Wait()

	wantJobs := workers / 2
	if jobs := ledgerJobs(l); len(jobs) != wantJobs {
		t.Errorf("jobs = %v, want %d holders", jobs, wantJobs)
	}
	if got, want := ledgerTotal(l), unit.Bandwidth(wantJobs)*share; got != want {
		t.Errorf("allocated = %v, want %v", got, want)
	}
	if got, want := ledgerFree(l), l.capacity-unit.Bandwidth(wantJobs)*share; got != want {
		t.Errorf("free = %v, want %v", got, want)
	}
}

// TestTokenBucketConcurrentReserve hits one bucket from concurrent
// readers under a frozen fake clock: with no time passing there is no
// refill, so the final deficit is exactly the reserved volume minus
// the burst, independent of interleaving.
func TestTokenBucketConcurrentReserve(t *testing.T) {
	const (
		workers  = 8
		reserves = 100
		block    = unit.MB
	)
	t0 := time.Unix(1700000000, 0)
	clock := func() time.Time { return t0 } // frozen: deterministic refill (none)
	b := NewTokenBucket(100*unit.MBps, unit.Bytes(workers*reserves)*block/2, clock)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reserves; i++ {
				_ = b.Reserve(block)
				if i%20 == 0 {
					b.SetRate(100 * unit.MBps)
				}
			}
		}()
	}
	wg.Wait()

	// Half the volume was burst; the rest is deficit the next caller
	// must wait out: deficit / rate seconds.
	deficit := unit.Bytes(workers*reserves) * block / 2
	wantWait := time.Duration(float64(deficit) / float64(100*unit.MBps) * float64(time.Second))
	got := b.Reserve(0)
	if diff := got - wantWait; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("post-storm wait = %v, want %v", got, wantWait)
	}
}
