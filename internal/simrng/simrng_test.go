package simrng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	if New(7).Intn(1000) == New(8).Intn(1000) && New(7).Intn(1000) == New(8).Intn(1000) {
		// Single collisions are fine; identical streams are not.
		x, y := New(7), New(8)
		same := true
		for i := 0; i < 16; i++ {
			if x.Int63() != y.Int63() {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical streams")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	g := New(1)
	a := g.Split("alpha")
	b := g.Split("beta")
	same := true
	for i := 0; i < 16; i++ {
		if a.Int63() != b.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Error("split streams identical for different labels")
	}
}

func TestExponentialMean(t *testing.T) {
	g := New(2)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.Exponential(5)
	}
	mean := sum / n
	if mean < 4.5 || mean > 5.5 {
		t.Errorf("exponential mean %v, want ~5", mean)
	}
	defer func() {
		if recover() == nil {
			t.Error("non-positive mean did not panic")
		}
	}()
	g.Exponential(0)
}

func TestLogNormalMedian(t *testing.T) {
	g := New(3)
	const n = 20001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = g.LogNormal(math.Log(40), 1.5)
	}
	// Median of lognormal(mu, sigma) is e^mu = 40.
	med := quickSelectMedian(vals)
	if med < 35 || med > 45 {
		t.Errorf("lognormal median %v, want ~40", med)
	}
}

func quickSelectMedian(vals []float64) float64 {
	// Simple n log n median for the test.
	cp := append([]float64(nil), vals...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

func TestBoundedLogNormal(t *testing.T) {
	g := New(4)
	for i := 0; i < 1000; i++ {
		v := g.BoundedLogNormal(math.Log(40), 2, 2, 300)
		if v < 2 || v > 300 {
			t.Fatalf("value %v outside bounds", v)
		}
	}
}

func TestWeightedChoice(t *testing.T) {
	g := New(5)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[g.WeightedChoice([]float64{1, 2, 7})]++
	}
	if counts[2] < counts[1] || counts[1] < counts[0] {
		t.Errorf("weights not respected: %v", counts)
	}
	frac := float64(counts[2]) / 30000
	if frac < 0.65 || frac > 0.75 {
		t.Errorf("heavy weight drawn %.2f of the time, want ~0.7", frac)
	}
	defer func() {
		if recover() == nil {
			t.Error("zero weights did not panic")
		}
	}()
	g.WeightedChoice([]float64{0, 0})
}

func TestZipfSkew(t *testing.T) {
	g := New(6)
	z := NewZipf(g, 10, 1.2)
	counts := make([]int, 10)
	for i := 0; i < 20000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[5] {
		t.Errorf("zipf head %d not heavier than middle %d", counts[0], counts[5])
	}
	// s = 0 degenerates to uniform-ish.
	u := NewZipf(New(7), 4, 0)
	uc := make([]int, 4)
	for i := 0; i < 20000; i++ {
		uc[u.Next()]++
	}
	for i, c := range uc {
		if c < 4000 || c > 6000 {
			t.Errorf("uniform zipf bucket %d = %d, want ~5000", i, c)
		}
	}
}

func TestPermIsCompletePermutation(t *testing.T) {
	g := New(8)
	p := g.Perm(100)
	seenP := make(map[int]bool)
	for _, x := range p {
		if x < 0 || x >= 100 {
			t.Fatalf("perm value %d out of range", x)
		}
		seenP[x] = true
	}
	if len(seenP) != 100 {
		t.Error("perm is not a permutation")
	}
}

func TestGammaMomentsAndDeterminism(t *testing.T) {
	// Mean and CV of gamma draws must track the parameterization: the
	// load generator's burstiness knob is exactly this CV.
	for _, cv := range []float64{0.5, 1.0, 2.0} {
		g := New(7)
		const n = 20000
		mean := 0.5 // seconds between arrivals
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := g.GammaInterarrival(mean, cv)
			if x < 0 {
				t.Fatalf("cv %v: negative interarrival %v", cv, x)
			}
			sum += x
			sumSq += x * x
		}
		gotMean := sum / n
		gotVar := sumSq/n - gotMean*gotMean
		gotCV := math.Sqrt(gotVar) / gotMean
		if gotMean < 0.9*mean || gotMean > 1.1*mean {
			t.Errorf("cv %v: mean = %v, want ~%v", cv, gotMean, mean)
		}
		if gotCV < 0.9*cv || gotCV > 1.1*cv {
			t.Errorf("cv %v: measured CV = %v", cv, gotCV)
		}
	}
	// Same seed, same stream.
	a, b := New(11), New(11)
	for i := 0; i < 100; i++ {
		if x, y := a.Gamma(0.25, 2), b.Gamma(0.25, 2); x != y {
			t.Fatalf("gamma stream diverged at %d: %v != %v", i, x, y)
		}
	}
}

func TestGammaPanicsOnBadParams(t *testing.T) {
	g := New(1)
	for _, fn := range []func(){
		func() { g.Gamma(0, 1) },
		func() { g.Gamma(1, -1) },
		func() { g.GammaInterarrival(0, 1) },
		func() { g.GammaInterarrival(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad gamma params did not panic")
				}
			}()
			fn()
		}()
	}
}
