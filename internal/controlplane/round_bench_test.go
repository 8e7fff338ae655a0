package controlplane

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
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
// heartbeating nodes against a sink data plane.
func benchScheduler(tb testing.TB, jobs, nodes int) *SchedulerServer {
	tb.Helper()
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		tb.Fatal(err)
	}
	cl := core.Cluster{GPUs: 4 * max(nodes, 1), Cache: unit.TiB(100), RemoteIO: unit.Gbps(100)}
	now := time.Unix(0, 0)
	s, err := NewSchedulerServer(cl, pol, &sinkDataPlane{}, func() time.Time { return now })
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
		req := SubmitJobRequest{
			JobID:           fmt.Sprintf("j%05d", i),
			Model:           "ResNet-50",
			Dataset:         fmt.Sprintf("ds%03d", i%50),
			DatasetSize:     unit.GiB(50),
			NumGPUs:         1 + i%4,
			IdealThroughput: unit.MBpsOf(114),
			TotalBytes:      unit.GiB(500),
		}
		if err := s.Submit(req); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// BenchmarkScheduleRound measures the steady-state allocation round —
// the silod:hotpath loop — including the policy solve and the
// data-plane push. The round scratch makes allocs/op flat in the round
// count; hotalloc lint-gates the residual (policy internals).
func BenchmarkScheduleRound(b *testing.B) {
	for _, size := range []struct{ jobs, nodes int }{{64, 8}, {512, 64}} {
		b.Run(fmt.Sprintf("jobs%d_nodes%d", size.jobs, size.nodes), func(b *testing.B) {
			s := benchScheduler(b, size.jobs, size.nodes)
			if err := s.Schedule(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
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
	s := benchScheduler(b, 0, 4096)
	req := HeartbeatRequest{Node: "n02048", GPUs: 4, Cache: unit.GiB(64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Heartbeat(req); err != nil {
			b.Fatal(err)
		}
	}
}
