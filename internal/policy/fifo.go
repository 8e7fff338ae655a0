package policy

import (
	"repro/internal/core"
	"repro/internal/unit"
)

// admitGangs grants GPUs to jobs in the given order, all-or-nothing per
// gang, first-fit (a job too large for the remaining GPUs is skipped
// rather than blocking the queue, as DL cluster schedulers do). Grants
// are written into the provided map (only admitted jobs appear), so
// policies can recycle one assignment's maps across rounds.
//
// silod:pure
func admitGangs(grants map[string]int, totalGPUs int, ordered []core.JobView) {
	free := totalGPUs
	for _, j := range ordered {
		if j.NumGPUs <= free {
			grants[j.ID] = j.NumGPUs
			free -= j.NumGPUs
		}
	}
}

// runningFirstInto reorders jobs into dst (reused via dst[:0]) so
// currently running jobs come first, in queue order — non-preemptive
// admission.
//
// silod:pure
func runningFirstInto(dst []core.JobView, ordered []core.JobView) []core.JobView {
	out := dst[:0]
	for _, j := range ordered {
		if j.Running {
			out = append(out, j)
		}
	}
	for _, j := range ordered {
		if !j.Running {
			out = append(out, j)
		}
	}
	return out
}

// admittedViewsInto filters jobs down to those with a GPU grant, into
// dst (reused via dst[:0]).
//
// silod:pure
func admittedViewsInto(dst []core.JobView, jobs []core.JobView, grants map[string]int) []core.JobView {
	out := dst[:0]
	for _, j := range jobs {
		if grants[j.ID] > 0 {
			out = append(out, j)
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

	// scratch's maps are recycled across Assign calls; each returned
	// Assignment is valid only until the next Assign. The view buffers
	// below are likewise per-call scratch.
	scratch  core.Assignment
	sortBuf  []core.JobView
	ordBuf   []core.JobView
	admitBuf []core.JobView
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
	a := f.scratch.Reset()
	f.sortBuf = core.SortJobsInto(f.sortBuf, jobs)
	f.ordBuf = runningFirstInto(f.ordBuf, f.sortBuf)
	admitGangs(a.GPUs, c.GPUs, f.ordBuf)
	f.admitBuf = admittedViewsInto(f.admitBuf, jobs, a.GPUs)
	running := f.admitBuf
	if qa, ok := f.Storage.(QueueAwareAllocator); ok {
		var queued []core.JobView
		for _, j := range jobs {
			if a.GPUs[j.ID] == 0 {
				queued = append(queued, j)
			}
		}
		qa.AllocateStorageQueued(c, running, queued, &a)
		return a
	}
	f.Storage.AllocateStorage(c, running, &a)
	return a
}

var _ core.Policy = (*FIFO)(nil)
