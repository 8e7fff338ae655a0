package core

// The sorting, ID-keyed ValidateWith that the unsorted capacity check
// and positional grants replaced, kept verbatim (up to the ref prefix
// and the refAssignment it reads) as an oracle: every verdict and every
// error string must equal this one's, on the assignment converted to
// grants keyed by job ID.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/unit"
)

// refAssignment is Assignment with GPU and remote-IO grants keyed by
// job ID, the form the reference reads.
type refAssignment struct {
	GPUs       map[string]int
	CacheQuota map[string]unit.Bytes
	RemoteIO   map[string]unit.Bandwidth
}

// positional converts r to an Assignment over jobs. A grant to an ID
// outside jobs has no position; extra reports that one was found, and
// each such grant becomes an extra slot past the views, which only the
// length check can reject.
func positional(r refAssignment, jobs []JobView) (a Assignment, extra bool) {
	a.Reset(len(jobs))
	known := make(map[string]bool, len(jobs))
	for i := range jobs {
		known[jobs[i].ID] = true
		a.GPUs[i], a.RemoteIO[i] = r.GPUs[jobs[i].ID], r.RemoteIO[jobs[i].ID]
	}
	for id, g := range r.GPUs {
		if !known[id] {
			a.GPUs, extra = append(a.GPUs, g), true
		}
	}
	for id, bw := range r.RemoteIO {
		if !known[id] {
			a.RemoteIO, extra = append(a.RemoteIO, bw), true
		}
	}
	a.CacheQuota = r.CacheQuota
	return a, extra
}

// refValidateScratch is the reference's scratch: the views' positions
// and one key buffer per sorted walk.
type refValidateScratch struct {
	pos  map[string]int
	keys []string
	ids  []string
}

// refValidateWith is Validate with caller-owned scratch buffers. The
// verdict — including error strings and the sorted-key float
// accumulation order — is byte-identical to Validate's; only the
// allocation behaviour differs.
func refValidateWith(a refAssignment, c Cluster, jobs []JobView, s *refValidateScratch) error {
	if s.pos == nil {
		s.pos = make(map[string]int, len(jobs))
	} else {
		clear(s.pos)
	}
	pos := s.pos
	for i := range jobs {
		pos[jobs[i].ID] = i
	}
	gpus := 0
	for id, g := range a.GPUs {
		i, ok := pos[id]
		if !ok {
			return fmt.Errorf("core: GPU grant to unknown job %q", id)
		}
		if g != 0 && g != jobs[i].NumGPUs {
			return fmt.Errorf("core: job %s granted %d GPUs, gang needs %d", id, g, jobs[i].NumGPUs)
		}
		gpus += g
	}
	if gpus > c.GPUs {
		return fmt.Errorf("core: %d GPUs granted, cluster has %d", gpus, c.GPUs)
	}
	// Sum in sorted key order: float addition is not associative, and
	// Validate's totals must not vary with per-process map order.
	var cacheSum unit.Bytes
	cacheKeys := s.keys[:0]
	for key := range a.CacheQuota {
		cacheKeys = append(cacheKeys, key)
	}
	sort.Strings(cacheKeys)
	for _, key := range cacheKeys {
		q := a.CacheQuota[key]
		if q < 0 {
			return fmt.Errorf("core: negative cache quota %v for %q", q, key)
		}
		if math.IsNaN(float64(q)) || math.IsInf(float64(q), 1) {
			return fmt.Errorf("core: non-finite cache quota %v for %q", q, key)
		}
		cacheSum += q
	}
	if float64(cacheSum) > float64(c.Cache)*(1+1e-9)+1 {
		return fmt.Errorf("core: %v cache granted, cluster has %v", cacheSum, c.Cache)
	}
	s.keys = cacheKeys
	var ioSum unit.Bandwidth
	ioIDs := s.ids[:0]
	for id := range a.RemoteIO {
		ioIDs = append(ioIDs, id)
	}
	sort.Strings(ioIDs)
	s.ids = ioIDs
	for _, id := range ioIDs {
		bw := a.RemoteIO[id]
		if bw < 0 {
			return fmt.Errorf("core: negative remote IO %v for %q", bw, id)
		}
		if math.IsNaN(float64(bw)) || math.IsInf(float64(bw), 1) {
			return fmt.Errorf("core: non-finite remote IO %v for %q", bw, id)
		}
		if _, ok := pos[id]; !ok {
			return fmt.Errorf("core: remote IO grant to unknown job %q", id)
		}
		ioSum += bw
	}
	if float64(ioSum) > float64(c.RemoteIO)*(1+1e-9)+1 {
		return fmt.Errorf("core: %v remote IO granted, cluster has %v", ioSum, c.RemoteIO)
	}
	return nil
}

// TestValidateWithMatchesReference validates random assignments whose
// totals sit within a few ulps of the capacity bound, with NaN, ±Inf,
// negative and oversized values and unknown job IDs mixed in, and
// requires ValidateWith to agree with the sorting reference on every
// verdict and every error string. A grant to an unknown ID, which the
// reference rejects by name, has no positional form: it becomes an
// extra slot that the length check must reject instead. Both the
// unsorted cache acceptance and the sorted fallback must be exercised.
func TestValidateWithMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var s ValidateScratch
	var refS refValidateScratch
	accepted, fallback, unknown := 0, 0, 0
	for trial := 0; trial < 20000; trial++ {
		r, c, jobs := validateInstance(rng, trial)
		want := refValidateWith(r, c, jobs, &refS)
		a, extra := positional(r, jobs)
		got := a.ValidateWith(c, jobs, &s)
		if extra {
			unknown++
			if want == nil || got == nil || !strings.Contains(got.Error(), fmt.Sprintf("grants for %d jobs", len(jobs))) {
				t.Fatalf("trial %d: unknown-ID grant: ValidateWith = %v, reference %v", trial, got, want)
			}
			continue
		}
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("trial %d: ValidateWith = %v, reference %v", trial, got, want)
		}
		if capacityClears(a.CacheQuota, float64(c.Cache)) {
			accepted++
		} else {
			fallback++
		}
	}
	if accepted == 0 || fallback == 0 || unknown == 0 {
		t.Fatalf("%d unsorted accepts, %d sorted fallbacks, %d unknown-ID trials: all must run", accepted, fallback, unknown)
	}
}

// validateInstance draws one ID-keyed assignment over up to 40 jobs,
// whose IDs sort in view order. Valid GPU grants (one unknown ID at
// most, so the map-order GPU check names a unique culprit), and cache
// quotas and remote-IO grants whose capacity is set so the bound
// c·(1+1e-9)+1 lands within ±4 ulps of their sorted total, or far from
// it.
func validateInstance(rng *rand.Rand, trial int) (refAssignment, Cluster, []JobView) {
	n := rng.Intn(41)
	jobs := make([]JobView, n)
	a := refAssignment{GPUs: map[string]int{}, CacheQuota: map[string]unit.Bytes{}, RemoteIO: map[string]unit.Bandwidth{}}
	gpus := 0
	for i := range jobs {
		jobs[i] = view(fmt.Sprintf("j%02d", i), 1+rng.Intn(8), fmt.Sprintf("ds%d", rng.Intn(8)), unit.GiB(10), unit.MBpsOf(100))
		if rng.Intn(2) == 0 {
			a.GPUs[jobs[i].ID] = jobs[i].NumGPUs
			gpus += jobs[i].NumGPUs
		}
	}
	if trial%97 == 0 {
		a.GPUs["ghost"] = 1
	}
	value := func() float64 {
		switch rng.Intn(24) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		case 3:
			return -rng.Float64() * 1e9
		case 4:
			return 0x1p64 * (1 + rng.Float64())
		case 5:
			return rng.Float64()
		}
		return rng.Float64() * math.Pow(10, float64(6+rng.Intn(7)))
	}
	special := trial%4 == 0
	huge := trial%3 == 1 // integral values, where a sum rounds by whole units
	draw := func() float64 {
		switch {
		case special:
			return value()
		case huge:
			return math.Ldexp(1+rng.Float64(), 53+rng.Intn(5))
		}
		return rng.Float64() * math.Pow(10, float64(6+rng.Intn(7)))
	}
	for k := rng.Intn(12); k > 0; k-- {
		a.CacheQuota[fmt.Sprintf("ds%d", rng.Intn(16))] = unit.Bytes(draw())
	}
	for _, j := range jobs {
		if rng.Intn(3) != 0 {
			a.RemoteIO[j.ID] = unit.Bandwidth(draw())
		}
	}
	if trial%13 == 0 {
		a.RemoteIO[fmt.Sprintf("stranger%d", rng.Intn(3))] = unit.Bandwidth(draw())
	}
	c := Cluster{
		GPUs:     gpus + rng.Intn(3),
		Cache:    unit.Bytes(capacityNear(rng, sortedSum(a.CacheQuota))),
		RemoteIO: unit.Bandwidth(capacityNear(rng, sortedSum(a.RemoteIO))),
	}
	return a, c, jobs
}

// sortedSum is the float total of m's values in sorted key order.
func sortedSum[V ~float64](m map[string]V) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += float64(m[k])
	}
	return sum
}

// capacityNear returns a capacity whose bound c·(1+1e-9)+1 lies within
// ±4 ulps of total half the time, and a random multiple of it otherwise.
func capacityNear(rng *rand.Rand, total float64) float64 {
	if rng.Intn(2) == 0 {
		return total * 2 * rng.Float64()
	}
	c := (total - 1) / (1 + 1e-9)
	for k := rng.Intn(9) - 4; k != 0; {
		if k > 0 {
			c, k = math.Nextafter(c, math.Inf(1)), k-1
		} else {
			c, k = math.Nextafter(c, math.Inf(-1)), k+1
		}
	}
	return c
}
