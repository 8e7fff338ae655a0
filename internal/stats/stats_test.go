package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanSumMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if !almost(Mean(xs), 2.8) {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if !almost(Sum(xs), 14) {
		t.Errorf("Sum = %v", Sum(xs))
	}
	if Max(xs) != 5 {
		t.Errorf("Max = %v", Max(xs))
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("empty Max not -Inf")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40}, {10, 14},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Errorf("P%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile != 0")
	}
	if Median(xs) != 30 {
		t.Error("median")
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []float64, p uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for i := range raw {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				raw[i] = 0
			}
		}
		pp := float64(p % 101)
		v := Percentile(raw, pp)
		return v >= slices.Min(raw)-1e-9 && v <= Max(raw)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStddev(t *testing.T) {
	if !almost(Stddev([]float64{2, 2, 2}), 0) {
		t.Error("constant stddev")
	}
	if got := Stddev([]float64{1, 3}); !almost(got, 1) {
		t.Errorf("stddev = %v", got)
	}
}

func TestRelativeError(t *testing.T) {
	if !almost(RelativeError(110, 100), 0.1) {
		t.Error("rel err")
	}
	if !almost(RelativeError(3, 0), 3) {
		t.Error("rel err with zero want")
	}
}

func TestCDF(t *testing.T) {
	got := SampleCDF([]float64{10, 20, 30, 40}, []float64{0.5})
	if len(got) != 1 || got[0] != 25 {
		t.Errorf("SampleCDF: %v", got)
	}
}

func TestTimeWeighted(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 10)
	tw.Observe(10, 20) // 10 held for [0,10)
	// 20 held for [10,30)
	if got := tw.Finish(30); !almost(got, (10*10+20*20)/30.0) {
		t.Errorf("time-weighted mean = %v", got)
	}
	var empty TimeWeighted
	if empty.Finish(5) != 0 {
		t.Error("empty finish")
	}
	var single TimeWeighted
	single.Observe(3, 7)
	if got := single.Finish(3); got != 7 {
		t.Errorf("zero-duration series = %v, want last value", got)
	}
}

func TestTimeWeightedPanicsOnTimeTravel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("time travel did not panic")
		}
	}()
	var tw TimeWeighted
	tw.Observe(10, 1)
	tw.Observe(5, 2)
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "x"}
	for i := 0; i < 10; i++ {
		s.Append(float64(i), float64(i*i))
	}
	if s.Len() != 10 {
		t.Fatal("len")
	}
	if tm, v := s.At(3); tm != 3 || v != 9 {
		t.Error("At")
	}
	if s.MaxValue() != 81 {
		t.Error("MaxValue")
	}
	ds := s.Downsample(4)
	if ds.Len() != 4 {
		t.Fatalf("downsample len %d", ds.Len())
	}
	if tm, _ := ds.At(0); tm != 0 {
		t.Error("downsample should keep first point")
	}
	if tm, _ := ds.At(3); tm != 9 {
		t.Error("downsample should keep last point")
	}
	// Downsampling a short series returns it whole.
	if got := s.Downsample(100); got.Len() != 10 {
		t.Error("downsample of short series")
	}
}

func TestSeriesMeanValue(t *testing.T) {
	s := &Series{}
	s.Append(0, 10)
	s.Append(10, 30)
	s.Append(20, 30)
	// 10 held [0,10), 30 held [10,20).
	if got := s.MeanValue(); !almost(got, 20) {
		t.Errorf("MeanValue = %v", got)
	}
	if (&Series{}).MeanValue() != 0 {
		t.Error("empty MeanValue")
	}
}

func TestDownsampleMonotoneProperty(t *testing.T) {
	f := func(n uint8, k uint8) bool {
		s := &Series{}
		for i := 0; i < int(n); i++ {
			s.Append(float64(i), float64(i))
		}
		ds := s.Downsample(int(k%32) + 1)
		times := append([]float64(nil), ds.Times...)
		return sort.Float64sAreSorted(times)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
