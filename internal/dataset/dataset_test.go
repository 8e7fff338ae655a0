package dataset

import (
	"testing"
	"testing/quick"

	"repro/internal/simrng"
	"repro/internal/unit"
	"repro/internal/workload"
)

func TestNewBlocks(t *testing.T) {
	b, err := New("ds", unit.GiB(1), 64*unit.MB)
	if err != nil {
		t.Fatal(err)
	}
	if b.Num != 16 {
		t.Errorf("1GiB/64MB = %d blocks, want 16", b.Num)
	}
	// Partial final block rounds up.
	b, _ = New("ds", unit.GiB(1)+1, 64*unit.MB)
	if b.Num != 17 {
		t.Errorf("rounding: %d blocks, want 17", b.Num)
	}
	if _, err := New("ds", 0, 64*unit.MB); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := New("ds", unit.GiB(1), 0); err == nil {
		t.Error("zero block size accepted")
	}
}

func TestFromWorkload(t *testing.T) {
	d, _ := workload.DatasetByName("ImageNet-1k")
	b, err := New(d.Name, d.Size, DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if b.Num != 2288 {
		t.Errorf("ImageNet-1k = %d blocks at 64MB, want 2288", b.Num)
	}
}

// TestEpochStreamExactlyOnce verifies the defining property of the DL
// access pattern (§2.2): every epoch visits every block exactly once.
func TestEpochStreamExactlyOnce(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN)%64 + 1
		b := Blocks{Num: n}
		s := NewEpochStream(b, simrng.New(seed))
		for epoch := 0; epoch < 3; epoch++ {
			seen := make(map[int]bool, n)
			for i := 0; i < n; i++ {
				blk, newEpoch := s.Next()
				if (i == 0) != newEpoch {
					return false // newEpoch must fire exactly at epoch starts
				}
				if seen[blk] {
					return false // duplicate within an epoch
				}
				seen[blk] = true
			}
			if len(seen) != n {
				return false
			}
			if s.Epoch() != epoch {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEpochStreamShuffles(t *testing.T) {
	b := Blocks{Num: 64}
	s := NewEpochStream(b, simrng.New(1))
	first := make([]int, 64)
	for i := range first {
		first[i], _ = s.Next()
	}
	second := make([]int, 64)
	for i := range second {
		second[i], _ = s.Next()
	}
	same := true
	for i := range first {
		if first[i] != second[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("consecutive epochs used the same order")
	}
}

func TestCurriculumStreamRespectsPacing(t *testing.T) {
	b := Blocks{Num: 1000}
	spec := workload.CurriculumSpec{StartingPercent: 0.1, Alpha: 2, StepSize: 100}
	s, err := NewCurriculumStream(b, spec, simrng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 500; i++ {
		vis := s.VisibleBlocks(i)
		blk, _ := s.Next()
		if blk >= vis {
			t.Fatalf("iteration %d drew block %d beyond visible prefix %d", i, blk, vis)
		}
	}
	if s.iteration != 500 {
		t.Errorf("iteration count %d", s.iteration)
	}
	// Repeats must occur (unlike epoch streams): 100 visible blocks,
	// 100+ draws in the first window.
	s2, _ := NewCurriculumStream(b, spec, simrng.New(3))
	seen := make(map[int]int)
	for i := 0; i < 100; i++ {
		blk, _ := s2.Next()
		seen[blk]++
	}
	repeats := 0
	for _, c := range seen {
		if c > 1 {
			repeats++
		}
	}
	if repeats == 0 {
		t.Error("no repeats in 100 draws from a 100-block window (astronomically unlikely)")
	}
}

func TestCurriculumNewEpochOnPacingGrowth(t *testing.T) {
	b := Blocks{Num: 100}
	spec := workload.CurriculumSpec{StartingPercent: 0.1, Alpha: 2, StepSize: 10}
	s, _ := NewCurriculumStream(b, spec, simrng.New(4))
	growths := 0
	for i := 0; i < 60; i++ {
		_, grew := s.Next()
		if grew {
			growths++
		}
	}
	// Window doubles at iterations 10, 20, 30, 40 (then caps) plus the
	// initial window at iteration 0.
	if growths < 4 {
		t.Errorf("only %d pacing growth events in 60 iterations", growths)
	}
	if s.Epoch() < 4 {
		t.Errorf("pacing-step index %d", s.Epoch())
	}
}

func TestCurriculumRejectsBadSpec(t *testing.T) {
	b := Blocks{Num: 10}
	if _, err := NewCurriculumStream(b, workload.CurriculumSpec{StartingPercent: 2, Alpha: 2, StepSize: 1}, simrng.New(1)); err == nil {
		t.Error("bad spec accepted")
	}
}
