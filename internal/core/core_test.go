package core

import (
	"fmt"
	"math"
	"slices"
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

// sized returns an empty assignment over n views.
func sized(n int) Assignment {
	var a Assignment
	a.Reset(n)
	return a
}

func TestAssignmentValidate(t *testing.T) {
	c := testCluster()
	jobs := []JobView{
		view("a", 2, "ds-a", unit.GiB(10), unit.MBpsOf(100)),
		view("b", 4, "ds-b", unit.GiB(20), unit.MBpsOf(50)),
	}
	good := sized(len(jobs))
	good.GPUs[0] = 2
	good.GPUs[1] = 4
	good.CacheQuota["ds-a"] = unit.GiB(10)
	good.RemoteIO[0] = unit.MBpsOf(60)
	good.RemoteIO[1] = unit.MBpsOf(40)
	if err := good.Validate(c, jobs); err != nil {
		t.Fatalf("good assignment rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Assignment)
		want   string
	}{
		// A grant to a job outside the views has no position: the
		// length check is what rejects an extra grant.
		{"extra GPU grant", func(a *Assignment) { a.GPUs = append(a.GPUs, 1) }, "3 GPU and 2 remote IO grants for 2 jobs"},
		{"missing GPU grant", func(a *Assignment) { a.GPUs = a.GPUs[:1] }, "1 GPU and 2 remote IO grants for 2 jobs"},
		{"partial gang", func(a *Assignment) { a.GPUs[1] = 2 }, "gang"},
		{"gpu oversub", func(a *Assignment) { a.GPUs[0] = 2; a.GPUs[1] = 4 }, ""},
		{"cache oversub", func(a *Assignment) { a.CacheQuota["ds-a"] = unit.GiB(200) }, "cache"},
		{"negative cache", func(a *Assignment) { a.CacheQuota["ds-a"] = -1 }, "negative"},
		{"io oversub", func(a *Assignment) { a.RemoteIO[0] = unit.MBpsOf(200) }, "remote IO"},
		{"negative io", func(a *Assignment) { a.RemoteIO[0] = -1 }, "negative"},
		{"extra io grant", func(a *Assignment) { a.RemoteIO = append(a.RemoteIO, 1) }, "2 GPU and 3 remote IO grants for 2 jobs"},
	}
	for _, tc := range cases {
		a := sized(len(jobs))
		a.GPUs[0] = 2
		tc.mutate(&a)
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

// TestValidateFirstErrorDeterministic: of two wrong-size gang grants,
// Validate names the one at the lower view position, every time. With
// grants kept in a map, whichever bad grant map order reached first
// was named.
func TestValidateFirstErrorDeterministic(t *testing.T) {
	c := testCluster()
	jobs := []JobView{
		view("z-first", 4, "ds-a", unit.GiB(10), unit.MBpsOf(100)),
		view("m-ok", 1, "ds-a", unit.GiB(10), unit.MBpsOf(100)),
		view("a-second", 4, "ds-b", unit.GiB(20), unit.MBpsOf(50)),
	}
	a := sized(len(jobs))
	a.GPUs[0], a.GPUs[1], a.GPUs[2] = 2, 1, 3
	const want = "core: job z-first granted 2 GPUs, gang needs 4"
	for k := 0; k < 100; k++ {
		if err := a.Validate(c, jobs); err == nil || err.Error() != want {
			t.Fatalf("run %d: err = %v, want %q", k, err, want)
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
		a := sized(len(jobs))
		a.CacheQuota["ds-a"] = unit.Bytes(bad)
		if err := a.Validate(c, jobs); err == nil || !strings.Contains(err.Error(), "non-finite cache quota") {
			t.Errorf("cache quota %v: err = %v", bad, err)
		}
		a = sized(len(jobs))
		a.RemoteIO[0] = unit.Bandwidth(bad)
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
	a := sized(500)
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("j%04d", i)
		jobs = append(jobs, view(id, 1, fmt.Sprintf("ds%02d", i%40), unit.GiB(10), unit.MBpsOf(100)))
		a.GPUs[i] = 1
		a.CacheQuota[jobs[i].DatasetKey] = unit.GiB(1)
		a.RemoteIO[i] = unit.MBpsOf(1)
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

// TestAssignmentResetRecycles: Reset sizes the grants to the view count,
// zeroed, and reuses the buffers it already has.
func TestAssignmentResetRecycles(t *testing.T) {
	var a Assignment
	a.Reset(4)
	a.GPUs[3], a.RemoteIO[3], a.CacheQuota["d"] = 2, 5, 7
	gpus := &a.GPUs[0]
	b := a.Reset(3)
	if len(b.GPUs) != 3 || len(b.RemoteIO) != 3 || len(b.CacheQuota) != 0 {
		t.Fatalf("Reset(3): %d GPUs, %d remote IO, %d quotas", len(b.GPUs), len(b.RemoteIO), len(b.CacheQuota))
	}
	if &b.GPUs[0] != gpus {
		t.Error("Reset reallocated a buffer with room")
	}
	a.Reset(4)
	if a.GPUs[3] != 0 || a.RemoteIO[3] != 0 {
		t.Errorf("stale grant survived Reset: %d GPUs, %v remote IO", a.GPUs[3], a.RemoteIO[3])
	}
}

// TestFrameworkMergesPartitionsByPosition: the regular and irregular
// partitions are solved over their own view lists, and the merged
// assignment puts each job's grants back at its position in the full
// list; on a cache key both partitions fund, the fallback's quota wins.
func TestFrameworkMergesPartitionsByPosition(t *testing.T) {
	f := &Framework{Policy: equalPolicy{"eq"}}
	jobs := []JobView{
		view("irr-a", 1, "shared", unit.GiB(10), unit.MBpsOf(100)),
		view("reg-a", 2, "shared", unit.GiB(10), unit.MBpsOf(100)),
		view("irr-b", 4, "ds-i", unit.GiB(10), unit.MBpsOf(100)),
		view("reg-b", 1, "ds-r", unit.GiB(10), unit.MBpsOf(100)),
	}
	jobs[0].Irregular, jobs[2].Irregular = true, true
	c := testCluster()
	a, err := f.Schedule(c, 0, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 4, 1}; !slices.Equal(a.GPUs, want) {
		t.Errorf("GPUs by position = %v, want %v", a.GPUs, want)
	}
	// Storage splits 3:5 between the partitions; the fallback gives each
	// of its two jobs half of its share.
	irrIO := unit.Bandwidth(float64(c.RemoteIO) - float64(c.RemoteIO)*3/8)
	if a.RemoteIO[0] != irrIO/2 || a.RemoteIO[2] != irrIO/2 {
		t.Errorf("irregular remote IO = %v, %v, want %v each", a.RemoteIO[0], a.RemoteIO[2], irrIO/2)
	}
	if a.RemoteIO[1] <= 0 || a.RemoteIO[3] <= 0 {
		t.Errorf("regular remote IO = %v, %v, want positive", a.RemoteIO[1], a.RemoteIO[3])
	}
	irrCache := unit.Bytes(float64(c.Cache) - float64(c.Cache)*3/8)
	if got, want := a.CacheQuota["shared"], min(irrCache/2, unit.GiB(10)); got != want {
		t.Errorf("shared quota = %v, want the fallback's %v", got, want)
	}
	if err := a.Validate(c, jobs); err != nil {
		t.Fatal(err)
	}
}

// equalPolicy splits everything equally for testing the framework.
type equalPolicy struct{ name string }

func (p equalPolicy) Name() string { return p.name }

func (p equalPolicy) Assign(c Cluster, now unit.Time, jobs []JobView) Assignment {
	a := sized(len(jobs))
	pos := make(map[string]int, len(jobs))
	for i := range jobs {
		pos[jobs[i].ID] = i
	}
	free, n := c.GPUs, 0
	for _, j := range SortJobsInto(nil, jobs) {
		if j.NumGPUs <= free {
			a.GPUs[pos[j.ID]] = j.NumGPUs
			free -= j.NumGPUs
			n++
		}
	}
	if n == 0 {
		return a
	}
	for i, j := range jobs {
		if a.GPUs[i] == 0 {
			continue
		}
		a.RemoteIO[i] = unit.Bandwidth(float64(c.RemoteIO) / float64(n))
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
	if a.GPUs[0] != 2 || a.GPUs[1] != 2 {
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
	if a.GPUs[0] != 4 || a.GPUs[1] != 2 {
		t.Fatalf("GPUs: %+v", a.GPUs)
	}
	// Storage is split 4:2 between the partitions; the regular job's
	// quota must come from the regular share only.
	regCache := float64(a.CacheQuota["ds-r"])
	if regCache > float64(c.Cache)*4.0/6.0+1 {
		t.Errorf("regular partition overdrew cache: %v", a.CacheQuota["ds-r"])
	}
	if a.RemoteIO[1] <= 0 {
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
	sorted := SortJobsInto(nil, jobs)
	if sorted[0].ID != "c" || sorted[1].ID != "a" || sorted[2].ID != "b" {
		t.Errorf("order: %v %v %v", sorted[0].ID, sorted[1].ID, sorted[2].ID)
	}
	// Input untouched.
	if jobs[0].ID != "b" {
		t.Error("SortJobsInto mutated input")
	}
}
