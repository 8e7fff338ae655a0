package controlplane

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datamgr"
	"repro/internal/policy"
	"repro/internal/unit"
)

// sinkDataPlane accepts every push without doing work, so benchmarks
// and scale tests measure the scheduler round itself, not a data
// manager behind it.
type sinkDataPlane struct{ pushes int }

func (d *sinkDataPlane) RegisterDataset(string, unit.Bytes, unit.Bytes) error { return nil }
func (d *sinkDataPlane) AttachJob(string, string) error                       { return nil }
func (d *sinkDataPlane) DetachJob(string) error                               { return nil }
func (d *sinkDataPlane) AllocateCacheSize(string, unit.Bytes) error {
	d.pushes++
	return nil
}
func (d *sinkDataPlane) AllocateRemoteIO(string, unit.Bandwidth) error {
	d.pushes++
	return nil
}

// benchScheduler builds a scheduler with jobs active jobs and nodes
// heartbeating nodes against the data plane dp.
func benchScheduler(tb testing.TB, jobs, nodes int, dp DataPlane) *SchedulerServer {
	tb.Helper()
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		tb.Fatal(err)
	}
	cl := core.Cluster{GPUs: 4 * max(nodes, 1), Cache: unit.TiB(100), RemoteIO: unit.Gbps(100)}
	now := time.Unix(0, 0)
	s, err := NewSchedulerServer(cl, pol, dp, func() time.Time { return now })
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if err := s.Heartbeat(HeartbeatRequest{
			Node: fmt.Sprintf("n%05d", i), GPUs: 4, Cache: unit.GiB(64),
		}); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < jobs; i++ {
		if err := s.Submit(benchJob(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// benchJob is the i-th job benchScheduler submits.
func benchJob(i int) SubmitJobRequest {
	return SubmitJobRequest{
		JobID:           fmt.Sprintf("j%05d", i),
		Model:           "ResNet-50",
		Dataset:         fmt.Sprintf("ds%03d", i%50),
		DatasetSize:     unit.GiB(50),
		NumGPUs:         1 + i%4,
		IdealThroughput: unit.MBpsOf(114),
		TotalBytes:      unit.GiB(500),
	}
}

// BenchmarkScheduleRound measures the allocation round, including
// the policy solve and the data-plane push. In the cases without churn nothing changes between rounds, so
// each one is a memo hit on an applied assignment: it builds the views,
// compares them with the memo and returns before the apply and the
// push. The churn case submits k jobs and completes k before each round
// (outside the timer), so every round merges the arrivals into the job
// list, solves, applies and pushes what changed. The round scratch
// makes allocs/op flat in the round count. The datamgr case pushes into a real data
// manager, as silodd does.
func BenchmarkScheduleRound(b *testing.B) {
	for _, size := range []struct {
		jobs, nodes int
		datamgr     bool
		churn       int
	}{{64, 8, false, 0}, {512, 64, false, 0}, {4000, 1000, true, 0}, {4000, 1000, false, 400}} {
		name := fmt.Sprintf("jobs%d_nodes%d", size.jobs, size.nodes)
		if size.datamgr {
			name += "_datamgr"
		}
		if size.churn > 0 {
			name += fmt.Sprintf("_churn%d", size.churn)
		}
		b.Run(name, func(b *testing.B) {
			var dp DataPlane = &sinkDataPlane{}
			if size.datamgr {
				dp = LocalDataPlane{Mgr: datamgr.New(unit.TiB(100), unit.Gbps(100), 1, nil)}
			}
			s := benchScheduler(b, size.jobs, size.nodes, dp)
			if err := s.Schedule(); err != nil {
				b.Fatal(err)
			}
			first, next := 0, size.jobs // the oldest live job, the next to submit
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if size.churn > 0 {
					b.StopTimer()
					for k := 0; k < size.churn; k++ {
						if err := s.Progress(ProgressRequest{JobID: fmt.Sprintf("j%05d", first), Done: true}); err != nil {
							b.Fatal(err)
						}
						first++
						if err := s.Submit(benchJob(next)); err != nil {
							b.Fatal(err)
						}
						next++
					}
					b.StartTimer()
				}
				if err := s.Schedule(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHeartbeatSteadyState measures the heartbeat fast path: a
// known live node re-reporting unchanged capacity must not rebuild the
// effective cluster (an O(nodes) sum) or touch the gauges.
func BenchmarkHeartbeatSteadyState(b *testing.B) {
	s := benchScheduler(b, 0, 4096, &sinkDataPlane{})
	req := HeartbeatRequest{Node: "n02048", GPUs: 4, Cache: unit.GiB(64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Heartbeat(req); err != nil {
			b.Fatal(err)
		}
	}
}
