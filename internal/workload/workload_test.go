package workload

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/unit"
)

func TestCatalogLookups(t *testing.T) {
	m, err := ModelByName("ResNet-50")
	if err != nil {
		t.Fatal(err)
	}
	if m.IdealIOPerGPU.MBpsValue() != 114 {
		t.Errorf("ResNet-50 f* = %v", m.IdealIOPerGPU)
	}
	if _, err := ModelByName("GPT-7"); err == nil {
		t.Error("unknown model accepted")
	}
	d, err := DatasetByName("ImageNet-1k")
	if err != nil {
		t.Fatal(err)
	}
	if d.Size != unit.GiB(143) {
		t.Errorf("ImageNet-1k size = %v", d.Size)
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
	if len(modelCatalog) < 8 || len(Datasets()) != 5 {
		t.Error("catalog sizes")
	}
}

// TestFigure6Efficiencies pins the paper's Figure 6 numbers: the cache
// efficiencies of the known model/dataset pairs.
func TestFigure6Efficiencies(t *testing.T) {
	jobs := Figure6Jobs()
	if len(jobs) != 11 {
		t.Fatalf("Figure 6 has %d jobs, want 11", len(jobs))
	}
	want := map[string]float64{
		"ResNet-50/ImageNet-1k":      0.80,
		"EfficientNetB1/ImageNet-1k": 0.48,
		"ResNet-152/ImageNet-1k":     0.30,
		"ResNet-50/OpenImages":       0.17,
		"BERT/WebSearch":             9.3e-5,
	}
	got := make(map[string]float64)
	for _, j := range jobs {
		got[j.Model.Name+"/"+j.Dataset.Name] = j.CacheEfficiency()
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("missing Figure 6 job %s", k)
			continue
		}
		if math.Abs(g-w)/w > 0.1 {
			t.Errorf("%s efficiency %.4g, paper %.4g", k, g, w)
		}
	}
	// Jobs must be sorted descending.
	for i := 1; i < len(jobs); i++ {
		if jobs[i].CacheEfficiency() > jobs[i-1].CacheEfficiency() {
			t.Error("Figure 6 jobs not sorted by efficiency")
		}
	}
}

func TestTable2Consistency(t *testing.T) {
	// Bytes/image implied by each row should be roughly constant
	// (ResNet-50 on ImageNet has one sample size).
	rows := Table2TrainingSpeeds()
	base := float64(rows[0].IO) / rows[0].ImagesPS
	for _, r := range rows[1:] {
		per := float64(r.IO) / r.ImagesPS
		if math.Abs(per-base)/base > 0.05 {
			t.Errorf("%s implies %.0f bytes/image, others %.0f", r.GPU, per, base)
		}
	}
}

func TestFigure1Growth(t *testing.T) {
	pts := Figure1GPUTrend()
	first, last := pts[0], pts[len(pts)-1]
	gpu := last.TFLOPS / first.TFLOPS
	egress := last.EgressGbps / first.EgressGbps
	if gpu < 100 || gpu > 150 {
		t.Errorf("GPU growth %fx, paper says ~125x", gpu)
	}
	if egress < 10 || egress > 15 {
		t.Errorf("egress growth %fx, paper says ~12x", egress)
	}
}

func TestJobSpecDerivedQuantities(t *testing.T) {
	m, _ := ModelByName("ResNet-50")
	d, _ := DatasetByName("ImageNet-1k")
	j := JobSpec{ID: "j", Model: m, Dataset: d, NumGPUs: 2, NumSteps: 1000}
	if j.IdealThroughput().MBpsValue() != 228 {
		t.Errorf("2-GPU ideal = %v", j.IdealThroughput())
	}
	if j.StepBytesTotal() != 2*m.StepBytes() {
		t.Error("StepBytesTotal")
	}
	if j.TotalBytes() != 1000*j.StepBytesTotal() {
		t.Error("TotalBytes")
	}
	// Ideal duration × ideal throughput == total bytes.
	got := float64(j.IdealDuration()) * float64(j.IdealThroughput())
	if math.Abs(got-float64(j.TotalBytes()))/float64(j.TotalBytes()) > 1e-9 {
		t.Error("duration/throughput inconsistent with total bytes")
	}
	// Speed scaling doubles throughput and halves duration.
	j2 := j
	j2.SpeedScale = 2
	if j2.IdealThroughput() != 2*j.IdealThroughput() {
		t.Error("speed scale throughput")
	}
	if math.Abs(float64(j2.IdealDuration())-float64(j.IdealDuration())/2) > 1e-9 {
		t.Error("speed scale duration")
	}
}

func TestWithSteps(t *testing.T) {
	m, _ := ModelByName("ResNet-50")
	d, _ := DatasetByName("ImageNet-1k")
	j := JobSpec{ID: "j", Model: m, Dataset: d, NumGPUs: 1}
	j = j.WithSteps(60 * unit.Minute)
	if math.Abs(float64(j.IdealDuration())-3600) > float64(j.StepTime()) {
		t.Errorf("WithSteps duration %v, want ~1h", j.IdealDuration())
	}
}

func TestJobSpecValidate(t *testing.T) {
	m, _ := ModelByName("ResNet-50")
	d, _ := DatasetByName("ImageNet-1k")
	good := JobSpec{ID: "j", Model: m, Dataset: d, NumGPUs: 1, NumSteps: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
	bad := []JobSpec{
		{Model: m, Dataset: d, NumGPUs: 1, NumSteps: 1}, // no ID
		{ID: "j", Model: m, Dataset: d, NumSteps: 1},    // no GPUs
		{ID: "j", Model: m, Dataset: d, NumGPUs: 1},     // no steps
		{ID: "j", Model: m, NumGPUs: 1, NumSteps: 1},    // no dataset
		{ID: "j", Dataset: d, NumGPUs: 1, NumSteps: 1},  // no model
		{ID: "j", Model: m, Dataset: d, NumGPUs: 1, NumSteps: 1, // bad curriculum
			Curriculum: &CurriculumSpec{StartingPercent: 0, Alpha: 2, StepSize: 10}},
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ds, mod := d, m
		ds.Size = unit.Bytes(x)
		mod.IdealIOPerGPU = unit.Bandwidth(x)
		bad = append(bad,
			JobSpec{ID: "j", Model: m, Dataset: ds, NumGPUs: 1, NumSteps: 1},  // non-finite dataset size
			JobSpec{ID: "j", Model: mod, Dataset: d, NumGPUs: 1, NumSteps: 1}) // non-finite ideal IO
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestCurriculumPacing(t *testing.T) {
	c := CurriculumSpec{StartingPercent: 0.04, Alpha: 2, StepSize: 100}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.VisibleFraction(0); got != 0.04 {
		t.Errorf("g(0) = %v", got)
	}
	if got := c.VisibleFraction(199); got != 0.08 {
		t.Errorf("g(199) = %v, want one doubling", got)
	}
	if got := c.VisibleFraction(10000); got != 1 {
		t.Errorf("g(10000) = %v, want capped at 1", got)
	}
	// Monotone non-decreasing.
	prev := 0.0
	for i := int64(0); i < 1000; i += 50 {
		v := c.VisibleFraction(i)
		if v < prev {
			t.Fatalf("pacing decreased at %d", i)
		}
		prev = v
	}
}

func TestTraceGeneration(t *testing.T) {
	cfg := DefaultTraceConfig(42, 200, 4*unit.Hour)
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 200 {
		t.Fatalf("%d jobs", len(jobs))
	}
	// Determinism: same seed, same trace.
	again, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i] != again[i] && jobs[i].ID == again[i].ID &&
			(jobs[i].NumSteps != again[i].NumSteps || jobs[i].Dataset != again[i].Dataset) {
			t.Fatalf("trace not deterministic at job %d", i)
		}
	}
	// Arrivals sorted, specs valid, durations within bounds.
	var prev unit.Time
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		if j.Submit < prev {
			t.Fatal("arrivals not sorted")
		}
		prev = j.Submit
		d := j.IdealDuration()
		if d < cfg.MinDuration/2 || d > cfg.MaxDuration*2 {
			t.Errorf("job %s duration %v outside bounds", j.ID, d)
		}
	}
	// Different seeds differ.
	other, _ := Generate(DefaultTraceConfig(43, 200, 4*unit.Hour))
	same := 0
	for i := range jobs {
		if jobs[i].NumSteps == other[i].NumSteps {
			same++
		}
	}
	if same == len(jobs) {
		t.Error("different seeds produced identical traces")
	}
}

func TestTraceSharing(t *testing.T) {
	cfg := DefaultTraceConfig(42, 300, 4*unit.Hour)
	cfg.ShareFraction = 1.0
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]int)
	for _, j := range jobs {
		names[j.Dataset.Name]++
	}
	if len(names) > cfg.SharedPoolSize {
		t.Errorf("%d distinct datasets with full sharing, want <= %d", len(names), cfg.SharedPoolSize)
	}
	cfg.ShareFraction = 0
	jobs, _ = Generate(cfg)
	names = make(map[string]int)
	for _, j := range jobs {
		names[j.Dataset.Name]++
	}
	if len(names) != len(jobs) {
		t.Errorf("%d distinct datasets without sharing, want %d", len(names), len(jobs))
	}
}

func TestTraceIORoundTrip(t *testing.T) {
	cur := &CurriculumSpec{StartingPercent: 0.04, Alpha: 2, StepSize: 5000}
	cfg := DefaultTraceConfig(42, 50, unit.Hour)
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs[0].Curriculum = cur

	var buf bytes.Buffer
	if err := WriteTrace(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(jobs) {
		t.Fatalf("round trip lost jobs: %d vs %d", len(back), len(jobs))
	}
	for i := range jobs {
		a, b := jobs[i], back[i]
		if a.ID != b.ID || a.Model.Name != b.Model.Name || a.NumSteps != b.NumSteps ||
			a.NumGPUs != b.NumGPUs || a.Dataset != b.Dataset ||
			math.Abs(float64(a.Submit-b.Submit)) > 1e-6 {
			t.Fatalf("job %d mismatch:\n%+v\n%+v", i, a, b)
		}
	}
	if back[0].Curriculum == nil || *back[0].Curriculum != *cur {
		t.Error("curriculum spec lost in round trip")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := DefaultTraceConfig(1, 0, unit.Hour)
	if _, err := Generate(bad); err == nil {
		t.Error("zero jobs accepted")
	}
	bad = DefaultTraceConfig(1, 10, unit.Hour)
	bad.ShareFraction = 1.5
	if _, err := Generate(bad); err == nil {
		t.Error("share > 1 accepted")
	}
	bad = DefaultTraceConfig(1, 10, unit.Hour)
	bad.GPUWeights = []float64{1}
	if _, err := Generate(bad); err == nil {
		t.Error("mismatched GPU mix accepted")
	}
}

// TestReadTraceRejectsGarbage exercises the parser's failure paths.
func TestReadTraceRejectsGarbage(t *testing.T) {
	cases := []string{
		`{"id":"x","model":"NotAModel","dataset":"d","dataset_size":1,"num_gpus":1,"num_steps":1,"submit_sec":0}`,
		`{"id":"","model":"ResNet-50","dataset":"d","dataset_size":1,"num_gpus":1,"num_steps":1,"submit_sec":0}`,
		`{"id":"x","model":"ResNet-50","dataset":"d","dataset_size":0,"num_gpus":1,"num_steps":1,"submit_sec":0}`,
		`{this is not json}`,
		`[1,2,3]`,
	}
	for i, c := range cases {
		if _, err := ReadTrace(bytes.NewReader([]byte(c + "\n"))); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
	// Empty input is a valid empty trace.
	jobs, err := ReadTrace(bytes.NewReader(nil))
	if err != nil || len(jobs) != 0 {
		t.Errorf("empty input: %v, %d jobs", err, len(jobs))
	}
}
