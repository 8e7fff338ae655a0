package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/estimator"
	"repro/internal/unit"
)

func view(id string, gpus int, dsKey string, dsSize unit.Bytes, fstar unit.Bandwidth) JobView {
	return JobView{
		ID:         id,
		NumGPUs:    gpus,
		Profile:    estimator.JobProfile{IdealThroughput: fstar, DatasetSize: dsSize},
		DatasetKey: dsKey, DatasetSize: dsSize,
		RemainingBytes: 10 * dsSize,
	}
}

func testCluster() Cluster {
	return Cluster{GPUs: 8, Cache: unit.GiB(100), RemoteIO: unit.MBpsOf(100)}
}

func TestClusterValidate(t *testing.T) {
	if err := testCluster().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Cluster{GPUs: 0}).Validate(); err == nil {
		t.Error("zero GPUs accepted")
	}
	if err := (Cluster{GPUs: 1, Cache: -1}).Validate(); err == nil {
		t.Error("negative cache accepted")
	}
}

func TestAssignmentValidate(t *testing.T) {
	c := testCluster()
	jobs := []JobView{
		view("a", 2, "ds-a", unit.GiB(10), unit.MBpsOf(100)),
		view("b", 4, "ds-b", unit.GiB(20), unit.MBpsOf(50)),
	}
	good := NewAssignment()
	good.GPUs["a"] = 2
	good.GPUs["b"] = 4
	good.CacheQuota["ds-a"] = unit.GiB(10)
	good.RemoteIO["a"] = unit.MBpsOf(60)
	good.RemoteIO["b"] = unit.MBpsOf(40)
	if err := good.Validate(c, jobs); err != nil {
		t.Fatalf("good assignment rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(Assignment)
		want   string
	}{
		{"unknown job", func(a Assignment) { a.GPUs["x"] = 1 }, "unknown job"},
		{"partial gang", func(a Assignment) { a.GPUs["b"] = 2 }, "gang"},
		{"gpu oversub", func(a Assignment) { a.GPUs["a"] = 2; a.GPUs["b"] = 4; a.GPUs["c"] = 0; _ = a }, ""},
		{"cache oversub", func(a Assignment) { a.CacheQuota["ds-a"] = unit.GiB(200) }, "cache"},
		{"negative cache", func(a Assignment) { a.CacheQuota["ds-a"] = -1 }, "negative"},
		{"io oversub", func(a Assignment) { a.RemoteIO["a"] = unit.MBpsOf(200) }, "remote IO"},
		{"negative io", func(a Assignment) { a.RemoteIO["a"] = -1 }, "negative"},
		{"io unknown job", func(a Assignment) { a.RemoteIO["zz"] = 1 }, "unknown"},
	}
	for _, tc := range cases {
		a := NewAssignment()
		a.GPUs["a"] = 2
		tc.mutate(a)
		err := a.Validate(c, jobs)
		if tc.want == "" {
			continue // mutation intentionally benign
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestAssignmentValidateNonFinite: a NaN or +Inf cache quota or remote
// IO grant is rejected by name. A NaN used to pass, because every
// comparison with it is false and it made the sum NaN too.
func TestAssignmentValidateNonFinite(t *testing.T) {
	c := testCluster()
	c.Cache, c.RemoteIO = unit.Bytes(math.Inf(1)), unit.Bandwidth(math.Inf(1))
	jobs := []JobView{view("a", 2, "ds-a", unit.GiB(10), unit.MBpsOf(100))}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		a := NewAssignment()
		a.CacheQuota["ds-a"] = unit.Bytes(bad)
		if err := a.Validate(c, jobs); err == nil || !strings.Contains(err.Error(), "non-finite cache quota") {
			t.Errorf("cache quota %v: err = %v", bad, err)
		}
		a = NewAssignment()
		a.RemoteIO["a"] = unit.Bandwidth(bad)
		if err := a.Validate(c, jobs); err == nil || !strings.Contains(err.Error(), "non-finite remote IO") {
			t.Errorf("remote IO %v: err = %v", bad, err)
		}
	}
}

// TestValidateWithAllocatesNothing: with its scratch reused,
// ValidateWith allocates nothing, whatever the job count.
func TestValidateWithAllocatesNothing(t *testing.T) {
	c := Cluster{GPUs: 4096, Cache: unit.TiB(100), RemoteIO: unit.Gbps(100)}
	var jobs []JobView
	a := NewAssignment()
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("j%04d", i)
		jobs = append(jobs, view(id, 1, fmt.Sprintf("ds%02d", i%40), unit.GiB(10), unit.MBpsOf(100)))
		a.GPUs[id] = 1
		a.CacheQuota[jobs[i].DatasetKey] = unit.GiB(1)
		a.RemoteIO[id] = unit.MBpsOf(1)
	}
	var s ValidateScratch
	var err error
	if got := testing.AllocsPerRun(20, func() { err = a.ValidateWith(c, jobs, &s) }); got != 0 {
		t.Errorf("ValidateWith: %v allocs/op with reused scratch, want 0", got)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestAssignmentMerge(t *testing.T) {
	a := NewAssignment()
	a.GPUs["x"] = 1
	a.CacheQuota["d1"] = 10
	b := NewAssignment()
	b.GPUs["y"] = 2
	b.CacheQuota["d1"] = 20
	b.RemoteIO["y"] = 5
	m := a.Merge(b)
	if m.GPUs["x"] != 1 || m.GPUs["y"] != 2 {
		t.Error("GPU merge")
	}
	if m.CacheQuota["d1"] != 20 {
		t.Error("merge should prefer other's value")
	}
	if m.RemoteIO["y"] != 5 {
		t.Error("IO merge")
	}
}

// equalPolicy splits everything equally for testing the framework.
type equalPolicy struct{ name string }

func (p equalPolicy) Name() string { return p.name }

func (p equalPolicy) Assign(c Cluster, now unit.Time, jobs []JobView) Assignment {
	a := NewAssignment()
	free := c.GPUs
	for _, j := range SortJobs(jobs) {
		if j.NumGPUs <= free {
			a.GPUs[j.ID] = j.NumGPUs
			free -= j.NumGPUs
		}
	}
	n := len(a.GPUs)
	if n == 0 {
		return a
	}
	for _, j := range jobs {
		if a.GPUs[j.ID] == 0 {
			continue
		}
		a.RemoteIO[j.ID] = unit.Bandwidth(float64(c.RemoteIO) / float64(n))
		q := a.CacheQuota[j.DatasetKey] + unit.Bytes(float64(c.Cache)/float64(n))
		if q > j.DatasetSize {
			q = j.DatasetSize
		}
		a.CacheQuota[j.DatasetKey] = q
	}
	return a
}

func TestFrameworkRegularOnly(t *testing.T) {
	f := &Framework{Policy: equalPolicy{"eq"}}
	jobs := []JobView{
		view("a", 2, "ds-a", unit.GiB(10), unit.MBpsOf(100)),
		view("b", 2, "ds-b", unit.GiB(20), unit.MBpsOf(50)),
	}
	a, err := f.Schedule(testCluster(), 0, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if a.GPUs["a"] != 2 || a.GPUs["b"] != 2 {
		t.Errorf("GPUs: %+v", a.GPUs)
	}
}

// TestFrameworkPartitionsIrregularJobs checks §6's irregular handling:
// irregular jobs get a storage partition and never see the main policy.
func TestFrameworkPartitionsIrregularJobs(t *testing.T) {
	f := &Framework{Policy: equalPolicy{"eq"}}
	jobs := []JobView{
		view("reg", 4, "ds-r", unit.GiB(10), unit.MBpsOf(100)),
		view("irr", 2, "ds-i", unit.GiB(10), unit.MBpsOf(100)),
	}
	jobs[1].Irregular = true
	c := testCluster()
	a, err := f.Schedule(c, 0, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if a.GPUs["reg"] != 4 || a.GPUs["irr"] != 2 {
		t.Fatalf("GPUs: %+v", a.GPUs)
	}
	// Storage is split 4:2 between the partitions; the regular job's
	// quota must come from the regular share only.
	regCache := float64(a.CacheQuota["ds-r"])
	if regCache > float64(c.Cache)*4.0/6.0+1 {
		t.Errorf("regular partition overdrew cache: %v", a.CacheQuota["ds-r"])
	}
	if a.RemoteIO["irr"] <= 0 {
		t.Error("irregular job got no remote IO from the fallback")
	}
	if err := a.Validate(c, jobs); err != nil {
		t.Fatal(err)
	}
}

func TestFrameworkErrors(t *testing.T) {
	f := &Framework{}
	if _, err := f.Schedule(testCluster(), 0, nil); err == nil {
		t.Error("nil policy accepted")
	}
	f = &Framework{Policy: equalPolicy{"eq"}}
	if _, err := f.Schedule(Cluster{}, 0, nil); err == nil {
		t.Error("invalid cluster accepted")
	}
}

func TestSortJobs(t *testing.T) {
	jobs := []JobView{
		{ID: "b", Submit: 5},
		{ID: "a", Submit: 5},
		{ID: "c", Submit: 1},
	}
	sorted := SortJobs(jobs)
	if sorted[0].ID != "c" || sorted[1].ID != "a" || sorted[2].ID != "b" {
		t.Errorf("order: %v %v %v", sorted[0].ID, sorted[1].ID, sorted[2].ID)
	}
	// Input untouched.
	if jobs[0].ID != "b" {
		t.Error("SortJobs mutated input")
	}
}
