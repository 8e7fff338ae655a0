package runner

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/simrng"
)

func TestMapMatchesSequential(t *testing.T) {
	// Each arm's output depends on its seed and index only, so the
	// parallel result slice must match the sequential one exactly.
	arm := func(a Arm) (string, error) {
		g := simrng.New(a.Seed)
		return fmt.Sprintf("%d:%d:%.6f", a.Index, a.Seed, g.Float64()), nil
	}
	const n = 64
	seq, err := Map(Options{Seed: 7, Workers: 1}, n, arm)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Map(Options{Seed: 7, Workers: 8}, n, arm)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("slot %d: sequential %q != parallel %q", i, seq[i], par[i])
		}
	}
}

func TestMapSeedsAreDerivedNotShared(t *testing.T) {
	seen := make(map[int64]int)
	_, err := Map(Options{Seed: 42, Workers: 1}, 32, func(a Arm) (int64, error) {
		want := simrng.ArmSeed(42, a.Index)
		if a.Seed != want {
			t.Errorf("arm %d: seed %d, want %d", a.Index, a.Seed, want)
		}
		seen[a.Seed]++
		return a.Seed, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for s, c := range seen {
		if c > 1 {
			t.Errorf("seed %d assigned to %d arms", s, c)
		}
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	_, err := Map(Options{Seed: 1, Workers: 4}, 16, func(a Arm) (int, error) {
		switch a.Index {
		case 3:
			return 0, errLow
		case 11:
			return 0, errHigh
		}
		return a.Index, nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("got %v, want lowest-indexed error %v", err, errLow)
	}
}

func TestSequentialStopsAtFirstError(t *testing.T) {
	var calls int
	boom := errors.New("boom")
	_, err := Map(Options{Workers: 1}, 10, func(a Arm) (int, error) {
		calls++
		if a.Index == 2 {
			return 0, boom
		}
		return a.Index, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if calls != 3 {
		t.Fatalf("sequential ran %d arms after the failure, want stop at 3", calls)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in arm did not propagate")
		}
	}()
	Map(Options{Workers: 4}, 8, func(a Arm) (int, error) {
		if a.Index == 5 {
			panic("arm exploded")
		}
		return a.Index, nil
	})
}

func TestWorkersBounded(t *testing.T) {
	var inFlight, highWater atomic.Int64
	_, err := Map(Options{Workers: 3}, 48, func(a Arm) (int, error) {
		cur := inFlight.Add(1)
		for {
			hw := highWater.Load()
			if cur <= hw || highWater.CompareAndSwap(hw, cur) {
				break
			}
		}
		defer inFlight.Add(-1)
		return a.Index * a.Index, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hw := highWater.Load(); hw > 3 {
		t.Fatalf("observed %d concurrent arms, want <= 3 workers", hw)
	}
}

// TestPoolStress hammers the pool under the race detector (make race
// runs this package with -race): many rounds of fan-out with
// shared read-only input, per-slot writes, and occasional errors.
func TestPoolStress(t *testing.T) {
	shared := make([]int64, 128)
	for i := range shared {
		shared[i] = int64(i * 31)
	}
	for round := 0; round < 25; round++ {
		res, err := Map(Options{Seed: int64(round), Workers: 8}, len(shared), func(a Arm) (int64, error) {
			g := simrng.New(a.Seed)
			return shared[a.Index] + g.Int63()%1000, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Map(Options{Seed: int64(round), Workers: 1}, len(shared), func(a Arm) (int64, error) {
			g := simrng.New(a.Seed)
			return shared[a.Index] + g.Int63()%1000, nil
		})
		for i := range res {
			if res[i] != want[i] {
				t.Fatalf("round %d slot %d: %d != %d", round, i, res[i], want[i])
			}
		}
	}
}

func TestArmSeedProperties(t *testing.T) {
	// Distinct (root, index) pairs must give distinct, non-negative
	// seeds, and the mapping must be reproducible.
	seen := make(map[int64]string)
	for root := int64(0); root < 8; root++ {
		for i := 0; i < 64; i++ {
			s := simrng.ArmSeed(root, i)
			if s < 0 {
				t.Fatalf("ArmSeed(%d,%d) = %d is negative", root, i, s)
			}
			if s != simrng.ArmSeed(root, i) {
				t.Fatalf("ArmSeed(%d,%d) not reproducible", root, i)
			}
			key := fmt.Sprintf("%d/%d", root, i)
			if prev, ok := seen[s]; ok {
				t.Fatalf("seed collision: %s and %s both map to %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}
