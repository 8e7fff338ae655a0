package policy

// The ID-keyed assignment the reference implementations
// (greedy_ref_test.go, maxmin_ref_test.go) write, with the map-based
// helpers they call, and the comparison that reads the product's
// positional grants by job ID to check them against it.

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/unit"
)

// refAssignment is core.Assignment as it was before grants became
// positional: GPU and remote-IO grants keyed by job ID.
type refAssignment struct {
	GPUs       map[string]int
	CacheQuota map[string]unit.Bytes
	RemoteIO   map[string]unit.Bandwidth
}

// newRefAssignment returns an empty assignment.
func newRefAssignment() refAssignment {
	return refAssignment{
		GPUs:       make(map[string]int),
		CacheQuota: make(map[string]unit.Bytes),
		RemoteIO:   make(map[string]unit.Bandwidth),
	}
}

// Reset clears the assignment's maps for reuse, allocating them on
// first use.
func (a *refAssignment) Reset() refAssignment {
	if a.GPUs == nil {
		*a = newRefAssignment()
		return *a
	}
	clear(a.GPUs)
	clear(a.CacheQuota)
	clear(a.RemoteIO)
	return *a
}

// refStorageAllocator and refQueueAwareAllocator are StorageAllocator
// and QueueAwareAllocator over copied running views and refAssignment.
type refStorageAllocator interface {
	Name() string
	AllocateStorage(c core.Cluster, running []core.JobView, a *refAssignment)
}

type refQueueAwareAllocator interface {
	AllocateStorageQueued(c core.Cluster, running, queued []core.JobView, a *refAssignment)
}

// refAdmitGangs grants GPUs to jobs in the given order, all-or-nothing
// per gang, first-fit, into grants by job ID.
func refAdmitGangs(grants map[string]int, totalGPUs int, ordered []core.JobView) {
	free := totalGPUs
	for _, j := range ordered {
		if j.NumGPUs <= free {
			grants[j.ID] = j.NumGPUs
			free -= j.NumGPUs
		}
	}
}

// refAdmittedViewsInto filters jobs down to those with a GPU grant, into
// dst (reused via dst[:0]).
func refAdmittedViewsInto(dst []core.JobView, jobs []core.JobView, grants map[string]int) []core.JobView {
	out := dst[:0]
	for _, j := range jobs {
		if grants[j.ID] > 0 {
			out = append(out, j)
		}
	}
	return out
}

// refCoorDLAllocator is CoorDLAllocator over refAssignment.
type refCoorDLAllocator struct{}

func (refCoorDLAllocator) Name() string { return "coordl" }

func (refCoorDLAllocator) AllocateStorage(c core.Cluster, running []core.JobView, a *refAssignment) {
	if c.GPUs <= 0 {
		return
	}
	perGPU := float64(c.Cache) / float64(c.GPUs)
	for _, j := range running {
		quota := unit.Bytes(perGPU * float64(j.NumGPUs))
		if quota > j.DatasetSize {
			quota = j.DatasetSize
		}
		a.CacheQuota[coorDLKey(j.ID)] = quota
	}
}

// positions returns lo, lo+1, ..., hi-1.
func positions(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// sameAs requires the product's assignment got over jobs to equal the
// reference assignment want bit for bit: every job's GPU and remote-IO
// grant (read by ID; a grant the reference never wrote is 0), no
// reference grant to an ID outside jobs, and the same quota keys with
// identical float64 bits.
func sameAs(want refAssignment, got core.Assignment, jobs []core.JobView) error {
	if len(got.GPUs) != len(jobs) || len(got.RemoteIO) != len(jobs) {
		return fmt.Errorf("product sized %d/%d GPU/IO grants for %d jobs", len(got.GPUs), len(got.RemoteIO), len(jobs))
	}
	known := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		known[j.ID] = true
	}
	for id := range want.GPUs {
		if !known[id] {
			return fmt.Errorf("reference GPU grant to unknown job %s", id)
		}
	}
	for id := range want.RemoteIO {
		if !known[id] {
			return fmt.Errorf("reference remote IO grant to unknown job %s", id)
		}
	}
	gotGPUs, gotIO := gpusByID(got, jobs), ioByID(got, jobs)
	for _, j := range jobs {
		if w, g := want.GPUs[j.ID], gotGPUs[j.ID]; w != g {
			return fmt.Errorf("GPUs[%s] %d vs %d", j.ID, w, g)
		}
		if w, g := want.RemoteIO[j.ID], gotIO[j.ID]; math.Float64bits(float64(w)) != math.Float64bits(float64(g)) {
			return fmt.Errorf("RemoteIO[%s] %v vs %v", j.ID, w, g)
		}
	}
	return sameQuotas(want.CacheQuota, got.CacheQuota)
}

// sameQuotas compares two quota maps key for key, bit for bit.
func sameQuotas(want, got map[string]unit.Bytes) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d vs %d quota keys", len(want), len(got))
	}
	for k, v := range want {
		if w, ok := got[k]; !ok || math.Float64bits(float64(w)) != math.Float64bits(float64(v)) {
			return fmt.Errorf("CacheQuota[%s] %v vs %v", k, v, w)
		}
	}
	return nil
}
