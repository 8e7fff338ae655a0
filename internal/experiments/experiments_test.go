package experiments

import (
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/unit"
)

func TestStaticArtifacts(t *testing.T) {
	out := RenderStatic()
	for _, want := range []string{
		"Table 1", "Table 2", "Figure 1", "Figure 3", "Figure 6",
		"ResNet-50", "ImageNet-1k", "WebSearch",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("static render missing %q", want)
		}
	}
	// Figure 6's headline numbers: ResNet-50/ImageNet-1k ~0.80, BERT ~9.5e-05.
	if !strings.Contains(out, "0.80") {
		t.Errorf("Figure 6 missing ResNet-50 cache efficiency 0.80:\n%s", out)
	}
	// Figure 1's growth factors: >100x GPU vs ~12x egress.
	if !strings.Contains(out, "114x") && !strings.Contains(out, "113x") {
		t.Errorf("Figure 1 growth factor missing:\n%s", out)
	}
}

func TestFigure3Shape(t *testing.T) {
	r := Figure3()
	if len(r.Servers) == 0 {
		t.Fatal("no series")
	}
	// Peer reads should track linear scaling within ~25% at every
	// point: the paper's conclusion that the storage fabric sustains
	// local-disk throughput.
	for i := range r.Servers {
		if r.Actual[i] < 0.75*r.Linear[i] {
			t.Errorf("n=%d: peer read %.1f GB/s too far below linear %.1f",
				r.Servers[i], r.Actual[i], r.Linear[i])
		}
	}
}

// TestFabricModelFigure3 pins the Figure 3 conclusion: with a
// datacenter storage fabric, peer reads sustain near-linear scaling.
func TestFabricModelFigure3(t *testing.T) {
	m := fabricModel{
		DemandPerServer: unit.MBpsOf(1923),
		LocalDiskBW:     unit.GBpsOf(3.2),
		FabricNICBW:     unit.GBpsOf(2.5),
	}
	for _, n := range []int{1, 10, 50} {
		actual, linear := m.Throughput(n)
		if float64(actual) < 0.75*float64(linear) {
			t.Errorf("n=%d: %v vs linear %v", n, actual, linear)
		}
		if actual > linear {
			t.Errorf("n=%d: actual above linear", n)
		}
	}
	// A slow NIC becomes the bottleneck as the peer fraction grows.
	slow := fabricModel{
		DemandPerServer: unit.MBpsOf(1923),
		LocalDiskBW:     unit.GBpsOf(3.2),
		FabricNICBW:     unit.MBpsOf(500),
	}
	a1, _ := slow.Throughput(1)
	a50, l50 := slow.Throughput(50)
	if float64(a1) != 1923*float64(unit.MB) {
		t.Errorf("n=1 has no peer traffic, throughput %v", a1)
	}
	if float64(a50) > 0.5*float64(l50) {
		t.Errorf("slow NIC at n=50 should bottleneck hard: %v vs %v", a50, l50)
	}
	if got, _ := m.Throughput(0); got != 0 {
		t.Error("n=0")
	}
}

func TestFigure4Shape(t *testing.T) {
	r, err := Figure4(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("SiloD: %v (min %.0f avg %.0f), Quiver: %v (min %.0f avg %.0f)",
		r.SiloDSpeeds, r.SiloDMin, r.SiloDAvg, r.QuiverSpeeds, r.QuiverMin, r.QuiverAvg)
	// SiloD's max-min allocation serves both jobs equally.
	if lo, hi := r.SiloDMin, maxOf(r.SiloDSpeeds); hi > 1.05*lo {
		t.Errorf("SiloD speeds unequal: %.1f vs %.1f", lo, hi)
	}
	// Quiver starves one job (paper: 114 vs 52 MB/s steady state).
	if maxOf(r.QuiverSpeeds) < 1.3*r.QuiverMin {
		t.Errorf("Quiver speeds too equal: %v", r.QuiverSpeeds)
	}
	// SiloD lifts the worst job well above Quiver's starved one.
	if r.SiloDMin < 1.3*r.QuiverMin {
		t.Errorf("SiloD min speed %.1f not clearly above Quiver min %.1f", r.SiloDMin, r.QuiverMin)
	}
	// Quiver's favored job reaches the level SiloD gives everyone.
	if best := maxOf(r.QuiverSpeeds); best < 0.9*r.SiloDMin {
		t.Errorf("Quiver's favored job %.1f below SiloD's level %.1f", best, r.SiloDMin)
	}
}

func TestEstimatorAccuracyQuick(t *testing.T) {
	r, err := EstimatorAccuracy(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r.Table())
	if r.MaxError > 0.05 {
		t.Errorf("estimator max error %.2f%% exceeds 5%%", 100*r.MaxError)
	}
}

func TestFigure16Quick(t *testing.T) {
	r, err := Figure16(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s\n%s", r.PacingTable, r.Table())
	for _, step := range r.StepSizes {
		u, l := r.UniformJCT[step], r.LRUJCT[step]
		if len(u) == 0 || len(l) == 0 {
			t.Fatalf("missing repeats for step %d", step)
		}
		mu, ml := mean(u), mean(l)
		// Under curriculum resampling LRU should match uniform caching
		// within ~10% (the paper finds them indistinguishable).
		if ml > 1.15*mu || mu > 1.15*ml {
			t.Errorf("step %d: LRU %.1f vs Uniform %.1f differ too much", step, ml, mu)
		}
	}
}

func maxOf(m map[string]float64) float64 {
	var best float64
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestFigure10Quick(t *testing.T) {
	r, err := Figure10(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s\n%s\n%s", r.Table(), r.CDFTable(), r.Figure8Text())
	silod := r.Results[policy.SiloD].AvgJCT()
	for _, cs := range []policy.CacheSystem{policy.Alluxio, policy.CoorDL} {
		if r.Results[cs].AvgJCT() < silod {
			t.Errorf("%v beats SiloD at quick scale: %.0f vs %.0f min",
				cs, r.Results[cs].AvgJCT().Minutes(), silod.Minutes())
		}
	}
	if r.EffectiveRatio < 0.5 || r.EffectiveRatio > 1.0001 {
		t.Errorf("effective cache ratio %.2f implausible", r.EffectiveRatio)
	}
}
