package policy

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/unit"
)

// admitGangs grants GPUs to jobs[i] for i in the given order,
// all-or-nothing per gang, first-fit (a job too large for the remaining
// GPUs is skipped rather than blocking the queue, as DL cluster
// schedulers do). Grants are written by view position into grants,
// which arrives zeroed (a Reset assignment's GPUs).
//
// silod:pure
func admitGangs(grants []int, free int, jobs []core.JobView, order []int) {
	for _, i := range order {
		if n := jobs[i].NumGPUs; n <= free {
			grants[i] = n
			free -= n
		}
	}
}

// grantedInto lists, in view order, the positions whose GPU grant is
// (granted) or is not (!granted) positive, into dst (reused via dst[:0]).
//
// silod:pure
func grantedInto(dst []int, grants []int, granted bool) []int {
	out := dst[:0]
	for i, g := range grants {
		if (g > 0) == granted {
			out = append(out, i)
		}
	}
	return out
}

// FIFO admits jobs in submission order without preemption and delegates
// storage to the configured allocator. With Storage set to
// GreedyAllocator this is FIFO-SiloD (§5.3: SiloD follows the FIFO
// order and allocates cache/remote IO for the scheduled jobs); with a
// baseline allocator it reproduces the paper's FIFO-on-Alluxio /
// CoorDL / Quiver configurations.
type FIFO struct {
	Storage StorageAllocator

	// scratch's buffers are recycled across Assign calls; each returned
	// Assignment is valid only until the next Assign. The buffers below
	// are likewise per-call scratch.
	scratch core.Assignment
	order   []queueKey // jobs in queue order
	running []int      // positions granted GPUs, in view order
	waiting []int      // positions left queued, in view order
}

// queueKey is one job's queue-order key (core.SortJobsInto's order: SLO
// rank, submit time, ID) and its index in the views.
type queueKey struct {
	slo    int
	submit unit.Time
	id     string
	i      int
}

// byQueue is core.SortJobsInto's comparator over queue keys: a strict
// total order (IDs are unique), so the sort reaches the same unique
// permutation without moving JobView structs.
//
// silod:pure
func byQueue(a, b queueKey) int {
	if a.slo != b.slo {
		return cmp.Compare(a.slo, b.slo)
	}
	if a.submit != b.submit {
		if a.submit < b.submit {
			return -1
		}
		return 1
	}
	return strings.Compare(a.id, b.id)
}

// Name implements core.Policy.
func (f *FIFO) Name() string { return "fifo+" + f.Storage.Name() }

// Assign implements core.Policy. The annotation is what PureAssign's
// claim rests on: admission order is a function of the views alone,
// so purity reduces to the allocator's — which is exactly what the
// assume= clause delegates to the runtime vetting in pure.go.
//
// silod:pure assume=StorageAllocator,QueueAwareAllocator
func (f *FIFO) Assign(c core.Cluster, now unit.Time, jobs []core.JobView) core.Assignment {
	// a points into f, so handing it to the StorageAllocator interface
	// does not move a local Assignment to the heap on every call.
	f.scratch.Reset(len(jobs))
	a := &f.scratch
	order := f.order[:0]
	for i := range jobs {
		order = append(order, queueKey{jobs[i].SLO.Rank(), jobs[i].Submit, jobs[i].ID, i})
	}
	slices.SortFunc(order, byQueue)
	f.order = order
	// Non-preemptive admission: running jobs first, then the rest, each
	// in queue order.
	free := c.GPUs
	for _, wasRunning := range [2]bool{true, false} {
		for _, q := range order {
			if j := &jobs[q.i]; j.Running == wasRunning && j.NumGPUs <= free {
				a.GPUs[q.i] = j.NumGPUs
				free -= j.NumGPUs
			}
		}
	}
	f.running = grantedInto(f.running, a.GPUs, true)
	if qa, ok := f.Storage.(QueueAwareAllocator); ok {
		f.waiting = grantedInto(f.waiting, a.GPUs, false)
		qa.AllocateStorageQueued(c, jobs, f.running, f.waiting, a)
		return *a
	}
	f.Storage.AllocateStorage(c, jobs, f.running, a)
	return *a
}

var _ core.Policy = (*FIFO)(nil)
