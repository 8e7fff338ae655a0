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
// A round costs what changed, not what exists. The job list is kept in
// ID order across rounds (activeLocked merges the sorted arrivals and
// drops the finished); push sends only the values that differ from the
// acknowledged ones; and a round whose solve reused the last assignment
// after that one was applied and pushed in full returns before applying
// it again (scheduleRound). Two pushes resend every value, because the
// data plane may hold less than the book says: a revival re-push and the
// first push after a data-plane call failed.
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

// activeLocked brings sc.jobs up to date: the jobs of s.active — the
// ones the data plane can take allocations for (attached, so not
// mid-Submit; not done) — in ID order. The list holds exactly s.active
// after every call, so with no arrival a job finished since the last
// call iff the list is longer than the map. When neither happened the
// list stands as it is; otherwise only the arrivals are sorted and one
// merge pass into sc.spare adds them and drops the finished jobs, and
// the two buffers swap. The list is the round's one order, so every
// later pass reads the records once, in that order. Speeds are left as
// the last round wrote them. The caller holds s.mu and round.mu.
func (s *SchedulerServer) activeLocked(sc *roundScratch) {
	if len(s.arrived) == 0 && len(sc.jobs) == len(s.active) {
		return
	}
	slices.SortFunc(s.arrived, func(a, b jobPush) int { return strings.Compare(a.id, b.id) })
	out, old, add := sc.spare[:0], sc.jobs, s.arrived
	for len(old) > 0 || len(add) > 0 {
		var p jobPush
		if len(add) == 0 || (len(old) > 0 && old[0].id < add[0].id) {
			p, old = old[0], old[1:]
		} else {
			p, add = add[0], add[1:]
		}
		if !p.job.done {
			out = append(out, p)
		}
	}
	clear(s.arrived) // drop the record pointers the backing array would keep
	s.arrived = s.arrived[:0]
	sc.spare, sc.jobs = sc.jobs[:0], out
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
// decreases before raises: the remote-IO ledger rejects a rate that
// takes the allotted sum over capacity, so a raise issued while a
// shrunken job's old rate is still booked would fail. The cache pool
// only clamps each quota to its capacity and checks no sum; quotas keep
// the same order so their sum never passes the larger of the old and
// new totals. A value equal to the acknowledged one joins neither phase,
// unless sc.resend asks for every value; equal ones then go out with
// the decreases. A failed data-plane call sets sc.resend: that data
// plane may have lost what it had accepted. ctx is checked between the
// phases: a round past its deadline releases capacity but claims none.
// The caller holds round.mu.
func (s *SchedulerServer) push(ctx context.Context, sc *roundScratch) error {
	sent := 0
	for _, grow := range [2]bool{false, true} {
		if grow {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("controlplane: schedule round: %w", err)
			}
		}
		for _, p := range sc.quotas {
			old := sc.booked[p.dataset]
			if (p.size == old && !sc.resend) || (p.size > old) != grow {
				continue
			}
			if err := s.dp.AllocateCacheSize(p.dataset, p.size); err != nil {
				s.met.pushErrors.Inc()
				sc.resend = true
				return err
			}
			sc.booked[p.dataset] = p.size
			sent++
		}
		for _, p := range sc.jobs {
			old := p.job.bookedIO
			if (p.speed == old && !sc.resend) || (p.speed > old) != grow {
				continue
			}
			if err := s.dp.AllocateRemoteIO(p.id, p.speed); err != nil {
				s.met.pushErrors.Inc()
				sc.resend = true
				return err
			}
			p.job.bookedIO = p.speed
			sent++
		}
	}
	sc.resend = false
	s.met.pushesSkipped.Add(int64(len(sc.quotas) + len(sc.jobs) - sent))
	return nil
}

// repush re-sends the decided allocation after a node revival through
// the round's push and scratch: it waits out a round in flight
// (round.mu, taken before s.mu as the round does). The data manager may
// have lost state with the node, so every value goes out.
func (s *SchedulerServer) repush() error {
	s.round.mu.Lock()
	defer s.round.mu.Unlock()
	sc := &s.round.sc
	s.mu.Lock()
	snap := s.snapshotLocked()
	sc.quotas = sortedQuotasInto(sc.quotas, snap.Quotas)
	s.activeLocked(sc)
	for i := range sc.jobs {
		sc.jobs[i].speed = snap.RemoteIO[sc.jobs[i].id]
	}
	s.mu.Unlock()
	sc.resend = true
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
