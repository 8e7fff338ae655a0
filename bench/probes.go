package main

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/eventq"
	"repro/internal/policy"
	"repro/internal/remoteio"
	"repro/internal/stats"
	"repro/internal/unit"
)

// Replay probes time one layer's public entry point in isolation, on
// the largest Assign input the traced run captured, so a move in a
// span's self time can be pinned on the layer under it.

const probeReps = 5

// prober times loops whose every repetition lasts at least rep.
type prober struct {
	rep time.Duration
	out samples
}

// probeSink keeps the compiler from discarding a probe's result.
var probeSink float64

// timeLoop returns the median over probeReps repetitions of the
// seconds one fn call takes, and the calls behind it.
func (p prober) timeLoop(fn func()) (float64, int) {
	fn() // warm scratch buffers
	var per []float64
	calls := 0
	for r := 0; r < probeReps; r++ {
		n := 0
		began := time.Now()
		for time.Since(began) < p.rep {
			for i := 0; i < 16; i++ {
				fn()
			}
			n += 16
		}
		per = append(per, time.Since(began).Seconds()/float64(n))
		calls += n
	}
	return stats.Median(per), calls
}

func allocsPerCall(fn func()) float64 { return testing.AllocsPerRun(10, fn) }

// core times the layers every policy round crosses:
// Assignment.ValidateWith, SortJobsInto and the estimator.
func (p prober) core(in assignInput, seed int64) error {
	if len(in.views) == 0 {
		return fmt.Errorf("probe: the traced run captured no Assign input")
	}
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, seed)
	if err != nil {
		return err
	}
	a := pol.Assign(in.cluster, in.now, in.views)
	var scratch core.ValidateScratch
	var verr error
	validate := func() { verr = a.ValidateWith(in.cluster, in.views, &scratch) }
	per, n := p.timeLoop(validate)
	if verr != nil {
		return fmt.Errorf("probe: captured input does not validate: %w", verr)
	}
	p.out.set("core.validate_us", per*1e6, n)
	p.out.set("core.validate_allocs", allocsPerCall(validate), 10)

	var buf []core.JobView
	per, n = p.timeLoop(func() { buf = core.SortJobsInto(buf, in.views) })
	p.out.set("core.sort_jobs_us", per*1e6, n)

	res := estimator.Resources{Cache: 32 * unit.GB, RemoteIO: 100 * unit.MBps}
	per, n = p.timeLoop(func() {
		for i := range in.views {
			probeSink += float64(in.views[i].Profile.Perf(res))
		}
	})
	p.out.set("estimator.perf_ns", per*1e9/float64(len(in.views)), n*len(in.views))
	return nil
}

// maxMin times MaxMinSolver.Storage cold (every call a full
// bisection) and warm (the input flips between two neighbours, so the
// exact-match memo misses but the lambda hints apply).
func (p prober) maxMin(in assignInput) {
	cold := policy.MaxMinSolver{Cold: true}
	coldFn := func() { probeSink += float64(len(cold.Storage(in.cluster.Cache, in.cluster.RemoteIO, in.views))) }
	per, n := p.timeLoop(coldFn)
	p.out.set("policy.maxmin_storage_cold_us", per*1e6, n)
	p.out.set("policy.maxmin_storage_allocs", allocsPerCall(coldFn), 10)

	var warm policy.MaxMinSolver
	views := append([]core.JobView(nil), in.views...)
	base, flip := views[0].CachedBytes, false
	per, n = p.timeLoop(func() {
		flip = !flip
		views[0].CachedBytes = base
		if flip {
			views[0].CachedBytes = base + 64*unit.MB
		}
		probeSink += float64(len(warm.Storage(in.cluster.Cache, in.cluster.RemoteIO, views)))
	})
	p.out.set("policy.maxmin_storage_warm_us", per*1e6, n)
}

// eventq times one Schedule+Step pair with 1 024 events pending.
func (p prober) eventq() {
	q := eventq.New()
	noop := func() {}
	for i := 0; i < 1024; i++ {
		q.Schedule(float64(i), noop)
	}
	step := func() {
		q.Schedule(q.Now()+1024, noop)
		q.Step()
	}
	per, n := p.timeLoop(step)
	p.out.set("eventq.schedule_step_ns", per*1e9, n)
	p.out.set("eventq.schedule_step_allocs", allocsPerCall(step), 10)
}

// ledger times Ledger.Set on a ledger holding jobs entries, the
// serve-http run's peak active-job count.
func (p prober) ledger(jobs int) error {
	l := remoteio.NewLedger(unit.GBpsOf(1))
	ids := make([]string, max(jobs, 1))
	for i := range ids {
		ids[i] = fmt.Sprintf("job-%06d", i)
		if err := l.Set(ids[i], 0); err != nil {
			return err
		}
	}
	var serr error
	i := 0
	set := func() {
		i = (i + 1) % len(ids)
		if err := l.Set(ids[i], unit.MBps); err != nil {
			serr = err
		}
		if err := l.Set(ids[i], 0); err != nil {
			serr = err
		}
	}
	per, n := p.timeLoop(set)
	if serr != nil {
		return serr
	}
	p.out.set("remoteio.ledger_set_us", per*1e6/2, n*2)
	p.out.set("remoteio.ledger_set_allocs", allocsPerCall(set)/2, 10)
	return nil
}
