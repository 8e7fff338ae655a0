package loadgen

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/unit"
)

func validSpec() Spec {
	return Spec{
		Seed:       7,
		Jobs:       500,
		MeanIAT:    100 * time.Millisecond,
		CV:         2,
		Datasets:   20,
		MinDataset: unit.GiB(1),
		MaxDataset: unit.GiB(50),
		MaxGPUs:    4,
		CritWeight: 1,
		StdWeight:  2,
		ShedWeight: 2,
	}
}

func TestSpecValidation(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Spec){
		func(s *Spec) { s.Jobs = 0 },
		func(s *Spec) { s.Jobs = 2_000_000 },
		func(s *Spec) { s.MeanIAT = 0 },
		func(s *Spec) { s.CV = 0 },
		func(s *Spec) { s.CV = 100 },
		func(s *Spec) { s.Datasets = 0 },
		func(s *Spec) { s.MinDataset = 0 },
		func(s *Spec) { s.MaxDataset = s.MinDataset / 2 },
		func(s *Spec) { s.MaxGPUs = 0 },
		func(s *Spec) { s.MaxGPUs = 100_000 },
		func(s *Spec) { s.CritWeight, s.StdWeight, s.ShedWeight = 0, 0, 0 },
		func(s *Spec) { s.ShedWeight = -1 },
	}
	for i, mut := range mutations {
		s := validSpec()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, s)
		}
		if _, err := Plan(s); err == nil {
			t.Errorf("mutation %d planned: %+v", i, s)
		}
	}
}

func TestPlanDeterministicAndWellFormed(t *testing.T) {
	spec := validSpec()
	a, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("same spec produced different plans")
	}
	if len(a) != spec.Jobs {
		t.Fatalf("plan has %d arrivals, want %d", len(a), spec.Jobs)
	}
	sizeOf := map[string]unit.Bytes{}
	var prev time.Duration
	seenTier := map[tenant.SLOClass]bool{}
	for i, ar := range a {
		if ar.At < prev {
			t.Fatalf("arrival %d goes back in time: %v < %v", i, ar.At, prev)
		}
		prev = ar.At
		if ar.NumGPUs < 1 || ar.NumGPUs > spec.MaxGPUs {
			t.Fatalf("arrival %d gang size %d outside [1, %d]", i, ar.NumGPUs, spec.MaxGPUs)
		}
		if ar.DatasetSize < spec.MinDataset || ar.DatasetSize > spec.MaxDataset {
			t.Fatalf("arrival %d dataset size %v outside bounds", i, ar.DatasetSize)
		}
		if ar.TotalBytes < ar.DatasetSize {
			t.Fatalf("arrival %d trains for less than one epoch", i)
		}
		if want, ok := sizeOf[ar.Dataset]; ok && want != ar.DatasetSize {
			t.Fatalf("dataset %s has two sizes: %v and %v", ar.Dataset, want, ar.DatasetSize)
		}
		sizeOf[ar.Dataset] = ar.DatasetSize
		if ar.Tenant != TenantID(ar.SLO) {
			t.Fatalf("arrival %d tenant %q does not match tier %v", i, ar.Tenant, ar.SLO)
		}
		seenTier[ar.SLO] = true
	}
	for _, c := range tenant.Classes() {
		if !seenTier[c] {
			t.Errorf("500-arrival plan never used tier %v", c)
		}
	}
}

func TestPlanTierMixTracksWeights(t *testing.T) {
	spec := validSpec()
	spec.Jobs = 4000
	spec.CritWeight, spec.StdWeight, spec.ShedWeight = 1, 1, 2
	plan, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[tenant.SLOClass]int{}
	for _, a := range plan {
		counts[a.SLO]++
	}
	// Expected fractions 0.25 / 0.25 / 0.5 within 5 points.
	checks := map[tenant.SLOClass]float64{
		tenant.Critical: 0.25, tenant.Standard: 0.25, tenant.Sheddable: 0.5,
	}
	for c, want := range checks {
		got := float64(counts[c]) / float64(spec.Jobs)
		if got < want-0.05 || got > want+0.05 {
			t.Errorf("tier %v fraction = %v, want ~%v", c, got, want)
		}
	}
}

func TestPlanBurstinessTracksCV(t *testing.T) {
	gaps := func(cv float64) (mean, sd float64) {
		spec := validSpec()
		spec.Jobs = 5000
		spec.CV = cv
		plan, err := Plan(spec)
		if err != nil {
			t.Fatal(err)
		}
		var prev time.Duration
		var xs []float64
		for _, a := range plan {
			xs = append(xs, float64(a.At-prev))
			prev = a.At
		}
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		for _, x := range xs {
			sd += (x - mean) * (x - mean)
		}
		sd /= float64(len(xs))
		return mean, math.Sqrt(sd)
	}
	for _, cv := range []float64{0.5, 1, 2} {
		mean, sd := gaps(cv)
		got := sd / mean
		if got < cv*0.85 || got > cv*1.15 {
			t.Errorf("cv %v: empirical CV %v outside 15%%", cv, got)
		}
	}
}

func TestReportAggregationAndMonotone(t *testing.T) {
	var r Report
	for i := 0; i < 10; i++ {
		r.Record(tenant.Critical, StatusAccepted)
	}
	for i := 0; i < 10; i++ {
		st := StatusAccepted
		if i < 3 {
			st = StatusShed
		}
		r.Record(tenant.Standard, st)
	}
	for i := 0; i < 10; i++ {
		st := StatusAccepted
		if i < 7 {
			st = StatusShed
		}
		r.Record(tenant.Sheddable, st)
	}
	r.Record(tenant.Standard, StatusRejected)
	r.Record(tenant.Standard, StatusError)
	if f := r.Tier(tenant.Sheddable).ShedFraction(); f != 0.7 {
		t.Errorf("sheddable shed fraction = %v, want 0.7", f)
	}
	if !r.ShedMonotone() {
		t.Error("monotone shed profile reported as non-monotone")
	}
	tot := r.Total()
	if tot.Offered != 32 || tot.Shed != 10 || tot.Rejected != 1 || tot.Errors != 1 {
		t.Errorf("totals = %+v", tot)
	}
	// Flip: critical shedding more than sheddable must fail the check.
	var bad Report
	bad.Record(tenant.Critical, StatusShed)
	bad.Record(tenant.Sheddable, StatusAccepted)
	if bad.ShedMonotone() {
		t.Error("inverted shed profile reported as monotone")
	}
	for _, s := range []Status{StatusAccepted, StatusShed, StatusRejected, StatusError, Status(42)} {
		if s.String() == "" {
			t.Errorf("Status(%d) has empty String", int(s))
		}
	}
}

// TestQuantile pins the latency quantiles silodload's report computes
// with stats.Percentile: 0 for no samples, the extremes and the median
// of an unsorted odd-length sample, and the sample left unordered.
func TestQuantile(t *testing.T) {
	if q := stats.Percentile(nil, 99); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {100, 5}, {50, 3}} {
		if got := stats.Percentile(xs, c.p); got != c.want {
			t.Errorf("P%.0f of %v = %v, want %v", c.p, xs, got, c.want)
		}
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("Percentile mutated its input: %v", xs)
	}
}
