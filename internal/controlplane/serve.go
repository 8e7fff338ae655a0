package controlplane

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/admission"
	"repro/internal/tenant"
)

// This file is the online serving mode (docs/serving.md): the bounded
// admission queue in front of Submit, and the single scheduler
// goroutine that drains it in batches per round — so the HTTP path
// stays O(enqueue) under any burst, and overload turns into explicit,
// SLO-ranked shedding instead of a wedged scheduler.

// ServeConfig tunes the round loop.
type ServeConfig struct {
	// Interval is the round period for the real-time ticker (ignored
	// when Ticks is set; 0 = no ticker, rounds on demand).
	Interval time.Duration
	// Batch bounds how many queued submissions one round drains
	// (0 = drain everything).
	Batch int
	// RoundDeadline is the watchdog threshold: rounds that take longer
	// (measured on the injected clock) increment
	// silod_sched_round_overruns_total. 0 disables the watchdog.
	RoundDeadline time.Duration
	// Ticks injects the tick source, for tests and simulations driving
	// rounds on a virtual clock. nil uses a real ticker at Interval.
	Ticks <-chan time.Time
}

// ConfigureAdmission puts the scheduler into queued-submission mode:
// POST /v1/jobs validates, classifies by tenant SLO, and enqueues in
// O(1), answering 202 (queued) or a typed 503 with a Retry-After hint
// when the shed policy rejects. The queue is drained by RunRound —
// call Serve (or RunRound directly) to make progress. Call once,
// before the server starts serving.
func (s *SchedulerServer) ConfigureAdmission(q *admission.Queue) {
	s.mu.Lock()
	s.queue = q
	s.mu.Unlock()
}

// SetDraining flips the drain flag: while draining, new submissions
// get a clean 503 (Retry-After 1s) so clients fail over, while
// in-flight requests and queued work complete. The daemon sets it on
// SIGTERM before shutting the listeners down.
func (s *SchedulerServer) SetDraining(v bool) {
	s.mu.Lock()
	s.draining = v
	s.mu.Unlock()
	if v {
		s.met.draining.Set(1)
	} else {
		s.met.draining.Set(0)
	}
}

// isDraining reports the drain flag.
func (s *SchedulerServer) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// admissionQueue returns the configured queue (nil in synchronous
// mode).
func (s *SchedulerServer) admissionQueue() *admission.Queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue
}

// classOf resolves a tenant ID to its SLO class (Standard for the
// untenanted flat pool).
func (s *SchedulerServer) classOf(tenantID string) tenant.SLOClass {
	s.mu.Lock()
	reg := s.tenants
	s.mu.Unlock()
	if reg == nil {
		return tenant.Standard
	}
	return reg.ClassOf(tenantID)
}

// drainAdmission pops up to batch queued submissions and admits them
// through the synchronous Submit path. Per-submission failures (quota
// rejections that raced capacity away, duplicate IDs from retries
// whose first attempt landed) are counted, not fatal: the round must
// go on.
func (s *SchedulerServer) drainAdmission(batch int) (admitted int) {
	q := s.admissionQueue()
	if q == nil {
		return 0
	}
	for _, payload := range q.Drain(batch) {
		req, ok := payload.(SubmitJobRequest)
		if !ok {
			s.met.asyncSubmitErrors.Inc()
			continue
		}
		if err := s.Submit(req); err != nil {
			s.met.asyncSubmitErrors.Inc()
			continue
		}
		admitted++
	}
	return admitted
}

// RunRound executes one serving round: drain an admission batch, run
// the scheduling round with ctx propagated through the critical
// section, and feed the round watchdog. This is the only place rounds
// happen in serve mode, so every duration the watchdog sees covers the
// full drain-solve-push cycle.
func (s *SchedulerServer) RunRound(ctx context.Context, cfg ServeConfig) error {
	start := s.clock()
	s.drainAdmission(cfg.Batch)
	err := s.schedule(ctx)
	dur := s.clock().Sub(start)
	s.met.roundSeconds.Observe(dur.Seconds())
	s.met.lastRoundSeconds.Set(dur.Seconds())
	if cfg.RoundDeadline > 0 && dur > cfg.RoundDeadline {
		s.met.roundOverruns.Inc()
	}
	return err
}

// Serve runs rounds until stop closes — the daemon's single scheduler
// goroutine. Submissions, heartbeats and progress reports never run
// rounds themselves; they enqueue or mutate state in O(1) and this
// loop picks the work up on the next tick. onRound (may be nil) gets
// each round's duration on the injected clock and its error. With no
// Ticks and no positive Interval the loop runs no round: rounds are on
// demand (POST /v1/schedule) and Serve only waits for stop.
func (s *SchedulerServer) Serve(cfg ServeConfig, stop <-chan struct{}, onRound func(time.Duration, error)) {
	ticks := cfg.Ticks
	if ticks == nil && cfg.Interval > 0 {
		t := time.NewTicker(cfg.Interval)
		defer t.Stop()
		ticks = t.C
	}
	for {
		select {
		case <-stop:
			return
		case <-ticks:
			start := s.clock()
			err := s.RunRound(context.Background(), cfg)
			if onRound != nil {
				onRound(s.clock().Sub(start), err)
			}
		}
	}
}

// retryAfterHeader formats a Retry-After hint as whole seconds
// (minimum 1: zero means "now" and defeats the backoff).
func retryAfterHeader(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// writeOverload writes a 503 with the Retry-After header — the typed
// backpressure response the retrying client understands.
func writeOverload(w http.ResponseWriter, retryAfter time.Duration, err error) {
	w.Header().Set("Retry-After", retryAfterHeader(retryAfter))
	writeError(w, http.StatusServiceUnavailable, err)
}

// enqueueSubmit is the queued-mode submit path: validate what is
// knowable statelessly, classify, and offer to the queue. It reports
// whether it handled the request (false = caller falls through to the
// synchronous path).
func (s *SchedulerServer) enqueueSubmit(w http.ResponseWriter, req SubmitJobRequest) bool {
	q := s.admissionQueue()
	if q == nil {
		return false
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return true
	}
	if req.NumGPUs > s.cluster.GPUs {
		writeError(w, http.StatusBadRequest, fmt.Errorf(
			"controlplane: job %s requests %d GPUs (cluster has %d)",
			req.JobID, req.NumGPUs, s.cluster.GPUs))
		return true
	}
	if err := q.Offer(s.classOf(req.Tenant), req); err != nil {
		var oe *admission.OverloadError
		if errors.As(err, &oe) {
			writeOverload(w, oe.RetryAfter, err)
			return true
		}
		writeError(w, http.StatusInternalServerError, err)
		return true
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"job_id": req.JobID, "status": "queued"})
	return true
}
