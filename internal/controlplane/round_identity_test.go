package controlplane

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/simrng"
	"repro/internal/unit"
)

// recordingPlane logs every data-plane call in order.
type recordingPlane struct{ log []string }

func (d *recordingPlane) RegisterDataset(name string, size, _ unit.Bytes) error {
	d.log = append(d.log, fmt.Sprintf("register %s %v", name, size))
	return nil
}
func (d *recordingPlane) AttachJob(jobID, dataset string) error {
	d.log = append(d.log, fmt.Sprintf("attach %s %s", jobID, dataset))
	return nil
}
func (d *recordingPlane) DetachJob(jobID string) error {
	d.log = append(d.log, "detach "+jobID)
	return nil
}
func (d *recordingPlane) AllocateCacheSize(dataset string, size unit.Bytes) error {
	d.log = append(d.log, fmt.Sprintf("cache %s %v", dataset, float64(size)))
	return nil
}
func (d *recordingPlane) AllocateRemoteIO(jobID string, speed unit.Bandwidth) error {
	d.log = append(d.log, fmt.Sprintf("io %s %v", jobID, float64(speed)))
	return nil
}

// take returns and clears the calls logged since the last take.
func (d *recordingPlane) take() []string {
	out := d.log
	d.log = nil
	return out
}

// countingPolicy counts solves. Embedding the interface promotes only
// Name and Assign, so every optional capability of the wrapped policy
// is hidden and core.Round must solve each round from scratch.
type countingPolicy struct {
	core.Policy
	calls int
}

func (p *countingPolicy) Assign(c core.Cluster, now unit.Time, jobs []core.JobView) core.Assignment {
	p.calls++
	return p.Policy.Assign(c, now, jobs)
}

// forwardingPolicy is countingPolicy with the capabilities passed
// through, so the round's memo sees the policy as it declares itself.
type forwardingPolicy struct{ countingPolicy }

func (p *forwardingPolicy) PureAssign() bool {
	pa, ok := p.Policy.(core.PureAssigner)
	return ok && pa.PureAssign()
}
func (p *forwardingPolicy) IgnoredViewFields() core.ViewFields {
	return core.PolicyIgnoredFields(p.Policy)
}

// TestRoundMemoChangesNoPush drives one seeded script of submits,
// progress reports, completions, heartbeats and a node death and
// revival through two schedulers — FIFO x SiloD as the pure,
// delta-aware policy it declares itself, and the same policy with its
// capabilities hidden — and requires the same data-plane calls and the
// same job table after every step. The memo may only ever skip work.
func TestRoundMemoChangesNoPush(t *testing.T) {
	const (
		nodes  = 4
		rounds = 40
		step   = 5 * time.Second
	)
	cl := core.Cluster{GPUs: 4 * nodes, Cache: unit.TiB(1), RemoteIO: unit.GBpsOf(1)}
	type side struct {
		sched *SchedulerServer
		plane *recordingPlane
		calls *int
	}
	now := time.Unix(0, 0)
	build := func(hide bool) side {
		t.Helper()
		inner, err := policy.Build(policy.FIFOKind, policy.SiloD, 7)
		if err != nil {
			t.Fatal(err)
		}
		fwd := &forwardingPolicy{countingPolicy{Policy: inner}}
		var pol core.Policy = fwd
		if hide {
			pol = &fwd.countingPolicy
		}
		plane := &recordingPlane{}
		s, err := NewSchedulerServer(cl, pol, plane, func() time.Time { return now })
		if err != nil {
			t.Fatal(err)
		}
		s.SetNodeLivenessTimeout(2*step + step/2)
		return side{sched: s, plane: plane, calls: &fwd.calls}
	}
	memo, ref := build(false), build(true)

	// do applies one scripted step to both schedulers and compares what
	// reached the data plane, in order: the push order of a round and of
	// a revival re-push is part of the contract.
	do := func(what string, f func(*SchedulerServer) error) {
		t.Helper()
		var logs [2][]string
		for i, sd := range []side{memo, ref} {
			if err := f(sd.sched); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			logs[i] = sd.plane.take()
		}
		if !reflect.DeepEqual(logs[0], logs[1]) {
			t.Fatalf("%s: data-plane calls differ\nmemo: %q\nref:  %q", what, logs[0], logs[1])
		}
	}

	rng := simrng.New(42)
	type liveJob struct {
		id       string
		total    unit.Bytes
		attained unit.Bytes
	}
	var live []liveJob
	submitted := 0
	for r := 0; r < rounds; r++ {
		now = now.Add(step)
		// Arrivals in bursts, so most rounds see an unchanged job set.
		if r%8 == 0 {
			for n := 2 + rng.Intn(4); n > 0; n-- {
				req := submitReq(fmt.Sprintf("j%03d", submitted), 1+rng.Intn(4), unit.GiB(float64(10+rng.Intn(40))))
				req.Dataset = fmt.Sprintf("ds-%d", rng.Intn(5))
				req.DatasetSize = unit.GiB(float64(20 + 10*rng.Intn(3)))
				submitted++
				do("submit "+req.JobID, func(s *SchedulerServer) error { return s.Submit(req) })
				live = append(live, liveJob{id: req.JobID, total: req.TotalBytes})
			}
		}
		// Every job reports progress; a few finish.
		keep := live[:0]
		for _, j := range live {
			j.attained += j.total / 16
			done := r%8 == 5 && rng.Intn(3) == 0
			rep := ProgressRequest{JobID: j.id, AttainedBytes: j.attained, Done: done}
			do("progress "+j.id, func(s *SchedulerServer) error { return s.Progress(rep) })
			if !done {
				keep = append(keep, j)
			}
		}
		live = keep
		// Node 3 goes silent for rounds 18-23: it is declared dead, its
		// jobs are preempted, and its return re-pushes allocations.
		for n := 0; n < nodes; n++ {
			if n == 3 && r >= 18 && r < 24 {
				continue
			}
			hb := HeartbeatRequest{Node: fmt.Sprintf("n%d", n), GPUs: 4, Cache: cl.Cache / nodes}
			do("heartbeat "+hb.Node, func(s *SchedulerServer) error { return s.Heartbeat(hb) })
		}
		do(fmt.Sprintf("round %d", r), (*SchedulerServer).Schedule)
		if a, b := memo.sched.Jobs(), ref.sched.Jobs(); !reflect.DeepEqual(a, b) {
			t.Fatalf("round %d: job tables differ\nmemo: %+v\nref:  %+v", r, a, b)
		}
	}

	snap := memo.sched.Registry().Snapshot()
	if deaths := snap.CounterValue("silod_sched_node_deaths_total", nil); deaths != 1 {
		t.Errorf("script saw %v node deaths, want 1", deaths)
	}
	if rec := snap.CounterValue("silod_sched_node_recoveries_total", nil); rec != 1 {
		t.Errorf("script saw %v node recoveries, want 1", rec)
	}
	if pre := snap.CounterValue("silod_sched_preemptions_total", nil); pre == 0 {
		t.Error("the node death preempted nothing: the script does not exercise capacity loss")
	}
	if *ref.calls != rounds {
		t.Errorf("capability-hiding side solved %d of %d rounds, want all", *ref.calls, rounds)
	}
	if *memo.calls >= *ref.calls/2 || *memo.calls < 5 {
		t.Errorf("memo side solved %d of %d rounds: want hits on the steady rounds and misses on arrivals, completions, death and revival",
			*memo.calls, rounds)
	}
}
