// Package hollow is a kubemark-style control-plane load harness: it
// drives a real SchedulerServer with thousands of synthetic ("hollow")
// heartbeating nodes and a synthetic job trace, with no data plane
// behind it — allocation pushes land in a digesting sink. The simulator
// answers "what would the cluster do"; hollow answers "how fast can the
// control plane itself decide": round latency and rounds/sec
// (docs/performance.md records the reference run and its push digest).
//
// Everything the scheduler sees is deterministic: the scheduler runs on
// a virtual clock, the trace comes from a seeded generator, and the
// push-sequence digest is byte-identical across same-seed runs (the
// identity test in this package gates that). Only the measured round
// latencies depend on the host.
package hollow

import (
	"fmt"
	"math"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/simrng"
	"repro/internal/stats"
	"repro/internal/unit"
)

// Config sizes a hollow-node run.
type Config struct {
	Nodes        int        // heartbeating hollow nodes
	GPUsPerNode  int        // GPUs each node reports
	CachePerNode unit.Bytes // cache each node reports
	Jobs         int        // total synthetic jobs over the run
	Datasets     int        // distinct datasets the jobs draw from
	Rounds       int        // scheduling rounds to drive
	JobRounds    int        // rounds between a job's first report and done
	Scheduler    policy.SchedulerKind
	System       policy.CacheSystem
	Seed         int64
	// Now is the latency clock — the only wall-clock in the harness,
	// used purely for measurement. nil means time.Now; tests inject a
	// counter so results are fully deterministic.
	Now func() time.Time
}

// Validate rejects shapes the harness cannot drive.
func (c Config) Validate() error {
	if c.Nodes <= 0 || c.GPUsPerNode <= 0 || c.CachePerNode <= 0 {
		return fmt.Errorf("hollow: need positive node shape (nodes=%d gpus=%d cache=%v)",
			c.Nodes, c.GPUsPerNode, c.CachePerNode)
	}
	if c.Jobs <= 0 || c.Datasets <= 0 || c.Rounds <= 0 || c.JobRounds <= 0 {
		return fmt.Errorf("hollow: need positive trace shape (jobs=%d datasets=%d rounds=%d jobRounds=%d)",
			c.Jobs, c.Datasets, c.Rounds, c.JobRounds)
	}
	return nil
}

// Percentiles summarizes a latency distribution.
type Percentiles struct {
	P50 time.Duration `json:"p50"`
	P90 time.Duration `json:"p90"`
	P99 time.Duration `json:"p99"`
	Max time.Duration `json:"max"`
}

// Result is one hollow run's outcome.
type Result struct {
	Nodes        int         `json:"nodes"`
	Jobs         int         `json:"jobs"`
	Rounds       int         `json:"rounds"`
	Completed    int         `json:"completed_jobs"`
	Digest       string      `json:"push_digest"` // FNV-1a over the data-plane push sequence
	RoundLatency Percentiles `json:"round_latency"`
	RoundsPerSec float64     `json:"rounds_per_sec"`
	TotalSeconds float64     `json:"total_seconds"` // sum of measured round latencies
}

// digestPlane is the hollow data plane: every push folds into an
// FNV-1a digest and disappears. The digest is the identity the
// same-seed test compares — it covers the full decision sequence the
// scheduler emitted, in order.
type digestPlane struct {
	h     uint64
	calls int
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newDigestPlane() *digestPlane { return &digestPlane{h: fnvOffset} }

func (d *digestPlane) mix(op byte, name string, bits uint64) {
	h := d.h
	h = (h ^ uint64(op)) * fnvPrime
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime
	}
	for shift := 0; shift < 64; shift += 8 {
		h = (h ^ (bits >> shift & 0xff)) * fnvPrime
	}
	d.h = h
	d.calls++
}

func (d *digestPlane) RegisterDataset(name string, size, blockSize unit.Bytes) error {
	d.mix('R', name, math.Float64bits(float64(size)))
	return nil
}

func (d *digestPlane) AttachJob(jobID, dataset string) error {
	d.mix('A', jobID+"/"+dataset, 0)
	return nil
}

func (d *digestPlane) DetachJob(jobID string) error {
	d.mix('D', jobID, 0)
	return nil
}

func (d *digestPlane) AllocateCacheSize(dataset string, size unit.Bytes) error {
	d.mix('C', dataset, math.Float64bits(float64(size)))
	return nil
}

func (d *digestPlane) AllocateRemoteIO(jobID string, speed unit.Bandwidth) error {
	d.mix('I', jobID, math.Float64bits(float64(speed)))
	return nil
}

// hollowJob is one synthetic job's client-side state: the harness plays
// the role of every job's training loop, reporting progress each round.
type hollowJob struct {
	id      string
	dataset string
	total   unit.Bytes
	reports int
}

// Run drives one hollow-node load run and reports the measured round
// latencies. The scheduler is real; the nodes, jobs and data plane are
// hollow.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	pol, err := policy.Build(cfg.Scheduler, cfg.System, cfg.Seed)
	if err != nil {
		return nil, err
	}
	cluster := core.Cluster{
		GPUs:     cfg.Nodes * cfg.GPUsPerNode,
		Cache:    unit.Bytes(cfg.Nodes) * cfg.CachePerNode,
		RemoteIO: unit.Gbps(float64(cfg.Nodes)), // 1 Gb/s of fabric per node
	}
	dp := newDigestPlane()
	// The scheduler's clock is virtual: it ticks only when the harness
	// advances it, one roundDt per round, so scheduler-side timestamps
	// (Submit times, liveness) are bit-deterministic.
	const roundDt = 10 * time.Second
	virtual := time.Unix(0, 0)
	sched, err := controlplane.NewSchedulerServer(cluster, pol, dp, func() time.Time { return virtual })
	if err != nil {
		return nil, err
	}
	// Hollow nodes re-heartbeat every round; the liveness window just
	// needs to span one virtual round.
	sched.SetNodeLivenessTimeout(3 * roundDt)
	nodeNames := make([]string, cfg.Nodes)
	for i := range nodeNames {
		nodeNames[i] = fmt.Sprintf("hollow-%06d", i)
	}
	beat := func(name string) error {
		return sched.Heartbeat(controlplane.HeartbeatRequest{
			Node: name, GPUs: cfg.GPUsPerNode, Cache: cfg.CachePerNode,
		})
	}
	for _, name := range nodeNames {
		if err := beat(name); err != nil {
			return nil, err
		}
	}

	rng := simrng.New(cfg.Seed)
	perRound := (cfg.Jobs + cfg.Rounds - 1) / cfg.Rounds
	var active []hollowJob
	submitted, completed := 0, 0
	latencies := make([]time.Duration, 0, cfg.Rounds)

	for round := 0; round < cfg.Rounds; round++ {
		virtual = virtual.Add(roundDt)
		// Arrivals: the next slice of the trace submits.
		for n := 0; n < perRound && submitted < cfg.Jobs; n++ {
			j := hollowJob{
				id:      fmt.Sprintf("job-%07d", submitted),
				dataset: fmt.Sprintf("ds-%04d", rng.Intn(cfg.Datasets)),
				total:   unit.GiB(float64(8 + rng.Intn(120))),
			}
			req := controlplane.SubmitJobRequest{
				JobID:           j.id,
				Model:           "ResNet-50",
				Dataset:         j.dataset,
				DatasetSize:     unit.GiB(64),
				NumGPUs:         1 + rng.Intn(cfg.GPUsPerNode),
				IdealThroughput: unit.MBpsOf(float64(50 + rng.Intn(300))),
				TotalBytes:      j.total,
			}
			if err := sched.Submit(req); err != nil {
				return nil, fmt.Errorf("hollow: submit %s: %w", j.id, err)
			}
			submitted++
			active = append(active, j)
		}
		// Progress reports: every active job ticks forward; a job done
		// after JobRounds reports leaves the working set.
		keep := active[:0]
		for _, j := range active {
			j.reports++
			done := j.reports >= cfg.JobRounds
			attained := j.total * unit.Bytes(j.reports) / unit.Bytes(cfg.JobRounds)
			if err := sched.Progress(controlplane.ProgressRequest{
				JobID:         j.id,
				AttainedBytes: attained,
				Done:          done,
			}); err != nil {
				return nil, fmt.Errorf("hollow: progress %s: %w", j.id, err)
			}
			if done {
				completed++
			} else {
				keep = append(keep, j)
			}
		}
		active = keep
		// Heartbeats: every hollow node re-reports its (unchanged)
		// capacity — the control plane's steady-state ingest load.
		for _, name := range nodeNames {
			if err := beat(name); err != nil {
				return nil, err
			}
		}
		// The measured quantity: one allocation round, solve + push.
		t0 := now()
		if err := sched.Schedule(); err != nil {
			return nil, fmt.Errorf("hollow: round %d: %w", round, err)
		}
		latencies = append(latencies, now().Sub(t0))
	}

	res := &Result{
		Nodes:     cfg.Nodes,
		Jobs:      submitted,
		Rounds:    cfg.Rounds,
		Completed: completed,
		Digest:    fmt.Sprintf("%016x", finishDigest(dp)),
	}
	var total time.Duration
	ns := make([]float64, len(latencies))
	for i, l := range latencies {
		total += l
		ns[i] = float64(l)
	}
	pct := func(p float64) time.Duration { return time.Duration(stats.Percentile(ns, p)) }
	res.RoundLatency = Percentiles{P50: pct(50), P90: pct(90), P99: pct(99), Max: pct(100)}
	res.TotalSeconds = total.Seconds()
	if total > 0 {
		res.RoundsPerSec = float64(cfg.Rounds) / total.Seconds()
	}
	return res, nil
}

// finishDigest folds the call count into the hash so an empty sequence
// and a sequence that cancels to the same state stay distinguishable.
func finishDigest(d *digestPlane) uint64 {
	h := d.h
	for shift := 0; shift < 64; shift += 8 {
		h = (h ^ (uint64(d.calls) >> shift & 0xff)) * fnvPrime
	}
	return h
}
