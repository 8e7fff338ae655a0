package controlplane

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/policy"
	"repro/internal/simrng"
	"repro/internal/unit"
)

// refSchedule is the reference round: the round as it stood before the
// job list was kept across rounds and equal values stopped being
// pushed. It sorts every active job ID, builds the views, solves,
// applies every decision and pushes every value, equal ones with the
// decreases. It runs on s's own state and scratch, so a server driven
// only through it is the reference the oracle below compares the real
// round with.
func refSchedule(s *SchedulerServer) error {
	s.round.mu.Lock()
	defer s.round.mu.Unlock()
	sc := &s.round.sc
	s.mu.Lock()
	sc.jobs = sc.jobs[:0]
	for id, j := range s.active {
		sc.jobs = append(sc.jobs, jobPush{id: id, job: j})
	}
	slices.SortFunc(sc.jobs, func(a, b jobPush) int { return strings.Compare(a.id, b.id) })
	// The list above holds every arrival; a revival re-push must not
	// merge them into it a second time.
	s.arrived = s.arrived[:0]
	sc.views = sc.views[:0]
	for _, p := range sc.jobs {
		j := p.job
		sc.views = append(sc.views, core.JobView{
			ID:      p.id,
			NumGPUs: j.req.NumGPUs,
			Profile: estimator.JobProfile{
				IdealThroughput: j.req.IdealThroughput,
				DatasetSize:     j.req.DatasetSize,
			},
			DatasetKey:      j.req.Dataset,
			DatasetSize:     j.req.DatasetSize,
			RemainingBytes:  remaining(j.req.TotalBytes, j.attained),
			AttainedBytes:   j.attained,
			EffectiveCached: j.effective,
			CachedBytes:     j.cached,
			Tenant:          j.req.Tenant,
			SLO:             j.slo,
			Submit:          unit.Time(j.submitted.Sub(s.epoch).Seconds()),
			Running:         j.running,
			Irregular:       j.req.Irregular,
		})
	}
	wall := s.clock()
	s.refreshLivenessLocked(wall)
	eff := s.effectiveClusterLocked()
	s.updateNodeGaugesLocked()
	if eff.GPUs <= 0 {
		for _, j := range s.active {
			j.running, j.gpus = false, 0
		}
		s.mu.Unlock()
		return nil
	}
	a, _, err := sc.solve.Solve(eff, unit.Time(wall.Sub(s.epoch).Seconds()), sc.views)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	gpus, speeds := grantsByID(a, sc.views)
	decided := make(map[string]unit.Bytes)
	clear(s.quotas)
	for i := range sc.jobs {
		p := &sc.jobs[i]
		j := p.job
		j.gpus = gpus[p.id]
		j.running = j.gpus > 0
		p.speed = speeds[p.id]
		j.remoteIO = p.speed
		decided[j.req.Dataset] = a.CacheQuota[j.req.Dataset]
		s.quotas[j.ds] = decided[j.req.Dataset]
	}
	sc.quotas = sc.quotas[:0]
	for ds, q := range decided {
		sc.quotas = append(sc.quotas, quotaPush{ds, q})
	}
	slices.SortFunc(sc.quotas, byDataset)
	s.mu.Unlock()
	for _, grow := range [2]bool{false, true} {
		for _, p := range sc.quotas {
			if (p.size > sc.booked[p.dataset]) == grow {
				if err := s.dp.AllocateCacheSize(p.dataset, p.size); err != nil {
					return err
				}
				sc.booked[p.dataset] = p.size
			}
		}
		for _, p := range sc.jobs {
			if (p.speed > p.job.bookedIO) == grow {
				if err := s.dp.AllocateRemoteIO(p.id, p.speed); err != nil {
					return err
				}
				p.job.bookedIO = p.speed
			}
		}
	}
	return nil
}

// grantsByID reads a's positional GPU and remote-IO grants over views
// keyed by job ID, the form the reference round applies.
func grantsByID(a core.Assignment, views []core.JobView) (map[string]int, map[string]unit.Bandwidth) {
	gpus := make(map[string]int, len(views))
	speeds := make(map[string]unit.Bandwidth, len(views))
	for i := range views {
		gpus[views[i].ID], speeds[views[i].ID] = a.GPUs[i], a.RemoteIO[i]
	}
	return gpus, speeds
}

// pushCall is one Table 3 call: "cache <dataset>" or "io <job>", and
// the quota or rate it carried.
type pushCall struct {
	key string
	val float64
}

var errInjected = errors.New("injected data-plane failure")

// streamPlane records the Table 3 calls that reach it and fails the
// ones fail picks (after recording them).
type streamPlane struct {
	sinkDataPlane
	log  []pushCall
	fail func(pushCall) bool
}

func (p *streamPlane) AllocateCacheSize(dataset string, size unit.Bytes) error {
	return p.call(pushCall{"cache " + dataset, float64(size)})
}

func (p *streamPlane) AllocateRemoteIO(jobID string, speed unit.Bandwidth) error {
	return p.call(pushCall{"io " + jobID, float64(speed)})
}

func (p *streamPlane) call(c pushCall) error {
	p.log = append(p.log, c)
	if p.fail != nil && p.fail(c) {
		return errInjected
	}
	return nil
}

func (p *streamPlane) take() []pushCall {
	out := p.log
	p.log = nil
	return out
}

// refShape is a hollow-style run (internal/hollow's generator): jobs
// arrive evenly over the first arrivalRounds rounds and are done after
// jobRounds progress reports, except every residentEvery-th job, which
// never finishes. With idStride > 1 the n-th job is numbered
// n·idStride mod jobs, so arrivals come out of ID order. No node
// heartbeats in rounds [silentFrom, silentTo), and in round r the
// failAt[r]-th value-changing call of the reference stream fails on
// both sides.
type refShape struct {
	name                          string
	sched                         policy.SchedulerKind
	nodes, jobs, datasets, rounds int
	jobRounds, arrivalRounds      int
	residentEvery, idStride       int
	silentFrom, silentTo          int
	failAt                        map[int]int
}

// TestPushStreamMatchesReference is the oracle for the push contract.
// One server runs the real round, another the reference round, on the
// same inputs. After every round the real stream must equal the
// reference stream filtered to the calls whose value differs from what
// the data plane last accepted, call for call; the round after a failed
// call must equal the reference stream unfiltered (it resends every
// value); and Annotations() must agree. Revival re-pushes resend every
// value on both sides and must match each other.
func TestPushStreamMatchesReference(t *testing.T) {
	pinned := func(kind policy.SchedulerKind) refShape {
		// TestPushStreamPinned's shape in internal/hollow.
		return refShape{name: kind.String(), sched: kind, nodes: 48, jobs: 3000, datasets: 16, rounds: 30,
			jobRounds: 4, arrivalRounds: 30, idStride: 1, silentFrom: -1, silentTo: -1}
	}
	churn := refShape{name: "churn", sched: policy.FIFOKind, nodes: 32, jobs: 900, datasets: 8, rounds: 36,
		jobRounds: 3, arrivalRounds: 20, residentEvery: 45, idStride: 7919, silentFrom: 24, silentTo: 29,
		failAt: map[int]int{3: 0, 7: 5, 12: 40, 13: 0, 17: 2}}
	for _, sh := range []refShape{pinned(policy.FIFOKind), pinned(policy.SJFKind), churn} {
		t.Run(sh.name, func(t *testing.T) { checkAgainstReference(t, sh) })
	}
}

func checkAgainstReference(t *testing.T, sh refShape) {
	const (
		gpusPerNode = 4
		roundDt     = 10 * time.Second
	)
	cluster := core.Cluster{
		GPUs:     sh.nodes * gpusPerNode,
		Cache:    unit.Bytes(sh.nodes) * unit.GiB(64),
		RemoteIO: unit.Gbps(float64(sh.nodes)),
	}
	virtual := time.Unix(0, 0)
	build := func() (*SchedulerServer, *streamPlane) {
		pol, err := policy.Build(sh.sched, policy.SiloD, 42)
		if err != nil {
			t.Fatal(err)
		}
		plane := &streamPlane{}
		s, err := NewSchedulerServer(cluster, pol, plane, func() time.Time { return virtual })
		if err != nil {
			t.Fatal(err)
		}
		s.SetNodeLivenessTimeout(3 * roundDt)
		return s, plane
	}
	cur, curPlane := build()
	ref, refPlane := build()
	both := func(what string, f func(*SchedulerServer) error) {
		t.Helper()
		for _, s := range []*SchedulerServer{cur, ref} {
			if err := f(s); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	}

	type job struct {
		id       string
		total    unit.Bytes
		reports  int
		resident bool
	}
	rng := simrng.New(42)
	perRound := (sh.jobs + sh.arrivalRounds - 1) / sh.arrivalRounds
	var live []job
	submitted, failures, resend, skipped := 0, 0, false, 0
	acked := make(map[string]float64) // what the data plane last accepted, per key
	for r := 0; r < sh.rounds; r++ {
		virtual = virtual.Add(roundDt)
		for n := 0; n < perRound && submitted < sh.jobs && r < sh.arrivalRounds; n++ {
			j := job{id: fmt.Sprintf("job-%07d", submitted*sh.idStride%sh.jobs)}
			j.resident = sh.residentEvery > 0 && submitted%sh.residentEvery == 0
			ds := fmt.Sprintf("ds-%04d", rng.Intn(sh.datasets))
			j.total = unit.GiB(float64(8 + rng.Intn(120)))
			req := SubmitJobRequest{JobID: j.id, Model: "ResNet-50", Dataset: ds, DatasetSize: unit.GiB(64),
				NumGPUs: 1 + rng.Intn(gpusPerNode), IdealThroughput: unit.MBpsOf(float64(50 + rng.Intn(300))),
				TotalBytes: j.total}
			both("submit "+j.id, func(s *SchedulerServer) error { return s.Submit(req) })
			submitted++
			live = append(live, j)
		}
		keep := live[:0]
		for _, j := range live {
			j.reports++
			done := !j.resident && j.reports >= sh.jobRounds
			attained := j.total * unit.Bytes(j.reports) / unit.Bytes(sh.jobRounds)
			if j.resident { // creeps towards its total, never reaching it
				attained = j.total * unit.Bytes(j.reports) / unit.Bytes(j.reports+1)
			}
			rep := ProgressRequest{JobID: j.id, AttainedBytes: attained, Done: done}
			both("progress "+j.id, func(s *SchedulerServer) error { return s.Progress(rep) })
			if !done {
				keep = append(keep, j)
			}
		}
		live = keep
		if r < sh.silentFrom || r >= sh.silentTo {
			for n := 0; n < sh.nodes; n++ {
				hb := HeartbeatRequest{Node: fmt.Sprintf("hollow-%06d", n), GPUs: gpusPerNode, Cache: unit.GiB(64)}
				both("heartbeat "+hb.Node, func(s *SchedulerServer) error { return s.Heartbeat(hb) })
			}
		}
		// Whatever reached the data planes since the last round came from
		// revival re-pushes.
		revival := refPlane.take()
		if got := curPlane.take(); !reflect.DeepEqual(got, revival) {
			t.Fatalf("before round %d: revival re-pushes differ\nreal: %v\nref:  %v", r, got, revival)
		}
		for _, c := range revival {
			acked[c.key] = c.val
		}

		// The reference round picks the failing call: its failAt[r]-th
		// call that changes a value. The real round fails the same key.
		failKey, nth := "", -1
		if k, ok := sh.failAt[r]; ok {
			nth = k
		}
		refPlane.fail = func(c pushCall) bool {
			if failKey != "" || c.val == acked[c.key] {
				return false
			}
			if nth--; nth == -1 {
				failKey = c.key
				return true
			}
			return false
		}
		curPlane.fail = func(c pushCall) bool { return c.key == failKey }
		refErr := refSchedule(ref)
		curErr := cur.Schedule()
		refPlane.fail, curPlane.fail = nil, nil
		refLog, curLog := refPlane.take(), curPlane.take()
		if (refErr != nil) != (curErr != nil) || (refErr != nil && !errors.Is(curErr, errInjected)) {
			t.Fatalf("round %d: reference round returned %v, real round %v", r, refErr, curErr)
		}
		want := refLog
		if !resend {
			want = nil
			for _, c := range refLog {
				if c.val != acked[c.key] {
					want = append(want, c)
				}
			}
		}
		if !reflect.DeepEqual(curLog, want) {
			t.Fatalf("round %d (resend %v): real stream differs from the reference's\nreal: %v\nwant: %v", r, resend, curLog, want)
		}
		landed := refLog
		if refErr != nil {
			landed = landed[:len(landed)-1]
			failures++
		}
		for _, c := range landed {
			acked[c.key] = c.val
		}
		resend = refErr != nil
		ann := cur.Annotations()
		if b := ref.Annotations(); !reflect.DeepEqual(ann, b) {
			t.Fatalf("round %d: annotations differ\nreal: %+v\nref:  %+v", r, ann, b)
		}
		// A complete round skips every value of its push lists — one
		// per annotated dataset and job — that it did not send.
		if lost := cur.Registry().Snapshot().CounterValue("silod_sched_effective_gpus", nil) == 0; refErr == nil && !lost {
			skipped += len(ann.Quotas) + len(ann.RemoteIO) - len(curLog)
		}
	}

	snap := cur.Registry().Snapshot()
	if n := snap.CounterValue("silod_sched_push_errors_total", nil); n != float64(failures) || failures != len(sh.failAt) {
		t.Errorf("%d of %d scripted failures happened, the real round counted %v", failures, len(sh.failAt), n)
	}
	if n := snap.CounterValue("silod_sched_pushes_skipped_total", nil); n != float64(skipped) {
		t.Errorf("the real round counted %v skipped pushes, want %d", n, skipped)
	}
	if sh.silentFrom >= 0 {
		if n := snap.CounterValue("silod_sched_node_recoveries_total", nil); n == 0 {
			t.Error("the silent rounds revived no node")
		}
		if n := snap.CounterValue("silod_sched_rounds_reused_total", nil); n == 0 {
			t.Error("no round reused its solve: the shape does not exercise the early return")
		}
	}
}
