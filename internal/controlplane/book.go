package controlplane

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/datamgr"
	"repro/internal/dataset"
	"repro/internal/unit"
)

// The allocation book: after a solve the scheduler pushes the joint
// allocation to the data manager and persists it for recovery (§6,
// Figure 7). Both read one book, which holds the allocation in two
// states with one owner each:
//
//   - decided: what the last round allotted — SchedulerServer.quotas per
//     dataset, schedJob.remoteIO per job — under s.mu, written only by
//     scheduleRound; Jobs, Annotations and the revival re-push read it.
//   - acknowledged: what the data plane last accepted —
//     roundScratch.booked per dataset, schedJob.bookedIO per job —
//     under round.mu, written only by push, call by call, so after a
//     failed push the next one classifies against what actually landed.
//
// push is the only caller of the Table 3 APIs, snapshotLocked the only
// renderer of the decided allocation.

// Annotations is the persisted allocation state — the analogue of the
// pod annotations Kubernetes keeps for SiloD ("the allocation of remote
// IO and cache is stored in pod annotation", §6) — in the form a
// recovering data manager takes: fresh.Restore(sched.Annotations()).
type Annotations = datamgr.Snapshot

// quotaPush and jobPush are push-list entries: the decided
// allocation copied out from under s.mu, so the push runs without it.
type quotaPush struct {
	dataset string
	size    unit.Bytes
}

type jobPush struct {
	id    string
	job   *schedJob // for its bookedIO
	speed unit.Bandwidth
}

// activeLocked fills dst, reusing its capacity, with the jobs the data
// plane can take allocations for (attached, so not mid-Submit; not done)
// in ID order, speeds zero. Sorting (ID, record) pairs before touching a
// record lets every later pass read the records once, in that order.
func (s *SchedulerServer) activeLocked(dst []jobPush) []jobPush {
	dst = dst[:0]
	for id, j := range s.active {
		dst = append(dst, jobPush{id: id, job: j})
	}
	slices.SortFunc(dst, func(a, b jobPush) int { return strings.Compare(a.id, b.id) })
	return dst
}

// sortedQuotasInto fills dst with m's entries in dataset order, reusing
// dst's capacity.
func sortedQuotasInto(dst []quotaPush, m map[string]unit.Bytes) []quotaPush {
	dst = dst[:0]
	for ds, q := range m {
		dst = append(dst, quotaPush{ds, q})
	}
	slices.SortFunc(dst, func(a, b quotaPush) int { return strings.Compare(a.dataset, b.dataset) })
	return dst
}

// push sends the scratch's push lists to the data plane in list order,
// decreases (and repeats) before raises: the remote-IO ledger rejects a
// rate that takes the allotted sum over capacity, so a raise issued
// while a shrunken job's old rate is still booked would fail. The cache
// pool only clamps each quota to its capacity and checks no sum; quotas
// keep the same order so their sum never passes the larger of the old
// and new totals. ctx is checked between the phases: a round past its
// deadline releases capacity but claims none. The caller holds round.mu.
//
// silod:hotpath
func (s *SchedulerServer) push(ctx context.Context, sc *roundScratch) error {
	for _, grow := range [2]bool{false, true} {
		if grow {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("controlplane: schedule round: %w", err)
			}
		}
		for _, p := range sc.quotas {
			if (p.size > sc.booked[p.dataset]) == grow {
				if err := s.dp.AllocateCacheSize(p.dataset, p.size); err != nil {
					s.met.pushErrors.Inc()
					return err
				}
				sc.booked[p.dataset] = p.size
			}
		}
		for _, p := range sc.jobs {
			if (p.speed > p.job.bookedIO) == grow {
				if err := s.dp.AllocateRemoteIO(p.id, p.speed); err != nil {
					s.met.pushErrors.Inc()
					return err
				}
				p.job.bookedIO = p.speed
			}
		}
	}
	return nil
}

// repush re-sends the decided allocation after a node revival through
// the round's push and scratch: it waits out a round in flight
// (round.mu, taken before s.mu as the round does).
func (s *SchedulerServer) repush() error {
	s.round.mu.Lock()
	defer s.round.mu.Unlock()
	sc := &s.round.sc
	s.mu.Lock()
	snap := s.snapshotLocked()
	sc.quotas = sortedQuotasInto(sc.quotas, snap.Quotas)
	sc.jobs = s.activeLocked(sc.jobs)
	for i := range sc.jobs {
		sc.jobs[i].speed = snap.RemoteIO[sc.jobs[i].id]
	}
	s.mu.Unlock()
	return s.push(context.Background(), sc)
}

// snapshotLocked renders the decided allocation of the jobs the data
// plane knows (attached, not done). Quotas come from the per-dataset
// record, so a job submitted since the last round cannot zero the quota
// of a dataset it shares. The caller holds s.mu.
func (s *SchedulerServer) snapshotLocked() Annotations {
	out := Annotations{
		Quotas:   make(map[string]unit.Bytes),
		RemoteIO: make(map[string]unit.Bandwidth, len(s.active)),
		Datasets: make(map[string]datamgr.DatasetGeom),
		Jobs:     make(map[string]string, len(s.active)),
	}
	for id, j := range s.active {
		out.Jobs[id] = j.req.Dataset
		out.RemoteIO[id] = j.remoteIO
		out.Quotas[j.req.Dataset] = s.quotas[j.req.Dataset]
		// Submit registers every dataset at the default block size.
		out.Datasets[j.req.Dataset] = datamgr.DatasetGeom{Size: j.req.DatasetSize, BlockSize: dataset.DefaultBlockSize}
	}
	return out
}

// Annotations returns the persisted allocation state for recovery.
func (s *SchedulerServer) Annotations() Annotations {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}
