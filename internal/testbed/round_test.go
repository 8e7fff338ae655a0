package testbed

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/unit"
	"repro/internal/workload"
)

// midSolvePolicy runs during once, inside its first Assign: the point
// between a round's view snapshot and its pushes. It records the job
// IDs of every Assign.
type midSolvePolicy struct {
	core.Policy
	during func()
	seen   [][]string
}

func (p *midSolvePolicy) Assign(c core.Cluster, now unit.Time, jobs []core.JobView) core.Assignment {
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
	}
	p.seen = append(p.seen, ids)
	if p.during != nil {
		p.during()
		p.during = nil
	}
	return p.Policy.Assign(c, now, jobs)
}

// TestRoundSkipsJobFinishedSinceSnapshot replays the interleaving that
// made TestFaultsAppliedToLiveManager fail under load: a job in the
// round's views finishes and detaches (exactly what runJob does at its
// end) before the round pushes its remote IO, and the manager rejects
// the push as an unknown job. That push is moot; the round must go on,
// serve the other jobs, and never start or offer the finished job again.
func TestRoundSkipsJobFinishedSinceSnapshot(t *testing.T) {
	inner, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	pol := &midSolvePolicy{Policy: inner}
	tb, err := newBed(Config{
		Cluster:   core.Cluster{GPUs: 3, Cache: unit.GiB(128), RemoteIO: unit.MBpsOf(300)},
		Policy:    pol,
		System:    policy.SiloD,
		TimeScale: 2000,
		BlockSize: unit.GiB(2),
		Seed:      1,
	}, []workload.JobSpec{
		tinyJob(t, "a", "ds-a", 32, 4),
		tinyJob(t, "b", "ds-b", 32, 4),
		tinyJob(t, "c", "ds-c", 32, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	gone := tb.jobs[2]
	pol.during = func() {
		gone.mu.Lock()
		gone.finished = true
		gone.mu.Unlock()
		tb.mgr.DetachJob(gone.spec.ID)
	}
	if err := tb.round(); err != nil {
		t.Fatalf("round with a job finished since the snapshot: %v", err)
	}
	if err := tb.round(); err != nil {
		t.Fatalf("next round: %v", err)
	}
	if want := [][]string{{"a", "b", "c"}, {"a", "b"}}; !slices.EqualFunc(pol.seen, want, slices.Equal[[]string]) {
		t.Errorf("policy was offered %v, want %v", pol.seen, want)
	}
	for _, j := range tb.jobs {
		st, err := tb.mgr.Stats(j.spec.ID)
		if j == gone {
			if err == nil || j.running {
				t.Errorf("finished job %s: attached=%v running=%v, want neither", j.spec.ID, err == nil, j.running)
			}
			continue
		}
		if err != nil || st.RemoteIO <= 0 || !j.running {
			t.Errorf("job %s: stats %+v err %v running %v, want a remote-IO grant and a start", j.spec.ID, st, err, j.running)
		}
	}

	// Every other rejection still aborts: a detached job that has not
	// finished is a protocol violation.
	tb.mgr.DetachJob("b")
	if err := tb.round(); err == nil {
		t.Error("round accepted a rejected push for a job that is still running")
	}
}
