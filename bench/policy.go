package main

import (
	"repro/internal/core"
	"repro/internal/unit"
)

// tracedPolicy spans every Assign of the policy it wraps and keeps the
// largest input it saw for the replay probes. It forwards every
// optional capability (PureAssigner, DeltaAssigner, FullResolver) so
// the engines' solve-skip memo behaves exactly as with the bare policy;
// the traced run reproducing the untraced run's outputs bit for bit is
// the proof. One wrapper serves one goroutine.
type tracedPolicy struct {
	inner  core.Policy
	tr     *tracer
	parent int // span the next Assign is a child of; the harness moves it per round
	trace  int

	jobs []float64 // len(views) per call
	big  assignInput
}

// assignInput is one captured Assign input.
type assignInput struct {
	cluster core.Cluster
	now     unit.Time
	views   []core.JobView
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Assign(c core.Cluster, now unit.Time, jobs []core.JobView) core.Assignment {
	id := p.tr.begin("policy.assign", p.parent, p.trace)
	a := p.inner.Assign(c, now, jobs)
	p.tr.end(id, 0)
	p.jobs = append(p.jobs, float64(len(jobs)))
	if len(jobs) > len(p.big.views) {
		p.big = assignInput{cluster: c, now: now, views: append(p.big.views[:0], jobs...)}
	}
	return a
}

// PureAssign implements core.PureAssigner by forwarding.
func (p *tracedPolicy) PureAssign() bool {
	pa, ok := p.inner.(core.PureAssigner)
	return ok && pa.PureAssign()
}

// IgnoredViewFields implements core.DeltaAssigner by forwarding.
func (p *tracedPolicy) IgnoredViewFields() core.ViewFields {
	return core.PolicyIgnoredFields(p.inner)
}

// SetFullResolve implements core.FullResolver by forwarding.
func (p *tracedPolicy) SetFullResolve(full bool) {
	if fr, ok := p.inner.(core.FullResolver); ok {
		fr.SetFullResolve(full)
	}
}

// wrapPolicy returns pol itself when tracing is off.
func wrapPolicy(pol core.Policy, tr *tracer, parent, trace int) (core.Policy, *tracedPolicy) {
	if tr == nil {
		return pol, nil
	}
	w := &tracedPolicy{inner: pol, tr: tr, parent: parent, trace: trace}
	return w, w
}
