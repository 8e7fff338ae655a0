package policy

import (
	"sort"

	"repro/internal/core"
	"repro/internal/tenant"
	"repro/internal/unit"
)

// TenantPolicy wraps an inner policy and clamps its Assignment to the
// per-tenant quotas in a tenant registry. The inner policy already
// favors protected tiers (SortJobs ranks by SLO, the greedy allocator
// weights cache efficiency by SLO class); the clamp adds the hard
// ceilings: a tenant never holds more GPUs, attributed cache or remote
// egress than its quota, no matter what the inner policy proposed.
// Tenants absent from the registry (including the untenanted "" pool)
// are unlimited, so a run without quotas is unchanged.
//
// All clamping is deterministic: tenants iterate in sorted-ID order,
// jobs in canonical queue order, and over-quota GPU grants are revoked
// from the back of the queue (lowest SLO rank, latest submit) first.
type TenantPolicy struct {
	Inner core.Policy
	Reg   *tenant.Registry
}

// Name implements core.Policy.
func (p *TenantPolicy) Name() string { return p.Inner.Name() + "+tenant" }

// PureAssign implements core.PureAssigner: the clamp is a pure function
// of the inner assignment and the (static during a run) registry, so
// purity is inherited from the inner policy.
//
// silod:pure-requires: (*TenantPolicy).Assign
func (p *TenantPolicy) PureAssign() bool {
	pa, ok := p.Inner.(core.PureAssigner)
	return ok && pa.PureAssign()
}

// IgnoredViewFields implements core.DeltaAssigner: the clamp itself
// reads tenant identity and the canonical queue order (SLO, Submit,
// ID), so those fields are always relevant; everything else is
// delegated to the inner policy's declaration.
//
// silod:pure-requires: (*TenantPolicy).Assign
func (p *TenantPolicy) IgnoredViewFields() core.ViewFields {
	da, ok := p.Inner.(core.DeltaAssigner)
	if !ok {
		return 0
	}
	return da.IgnoredViewFields() &^ (core.FieldTenant | core.FieldSLO | core.FieldSubmit)
}

// Assign implements core.Policy. Purity is inherited: the clamp
// itself is a pure function of the inner assignment and the (static
// during a run) registry, which is what PureAssign's delegation to
// the inner policy rests on.
//
// silod:pure assume=Policy
func (p *TenantPolicy) Assign(c core.Cluster, now unit.Time, jobs []core.JobView) core.Assignment {
	a := p.Inner.Assign(c, now, jobs)
	p.clamp(jobs, &a)
	return a
}

// clamp enforces the three quota dimensions in place.
//
// silod:pure
func (p *TenantPolicy) clamp(jobs []core.JobView, a *core.Assignment) {
	ordered := core.SortJobs(jobs)
	jobsOf := make(map[string][]core.JobView)
	for _, j := range ordered {
		jobsOf[j.Tenant] = append(jobsOf[j.Tenant], j)
	}

	// GPUs: revoke over-quota grants from the back of the tenant's
	// queue, so its own critical work survives its own quota pressure.
	for _, t := range p.Reg.List() {
		if t.Quota.GPUs <= 0 {
			continue
		}
		mine := jobsOf[t.ID]
		held := 0
		for _, j := range mine {
			held += a.GPUs[j.ID]
		}
		for i := len(mine) - 1; i >= 0 && held > t.Quota.GPUs; i-- {
			j := mine[i]
			if g := a.GPUs[j.ID]; g > 0 {
				held -= g
				delete(a.GPUs, j.ID)
				delete(a.RemoteIO, j.ID)
			}
		}
	}

	// Cache: each funded dataset is attributed to exactly one tenant —
	// the best-ranked (then lexicographically first) tenant among the
	// granted jobs using it, mirroring how the allocator charges shared
	// datasets once. A tenant over its cache quota has all its datasets'
	// quotas scaled down proportionally.
	dsOwner := make(map[string]string)
	for _, j := range ordered {
		if a.GPUs[j.ID] <= 0 {
			continue
		}
		if _, ok := a.CacheQuota[j.DatasetKey]; !ok {
			continue
		}
		if _, claimed := dsOwner[j.DatasetKey]; !claimed {
			dsOwner[j.DatasetKey] = j.Tenant
		}
	}
	for _, t := range p.Reg.List() {
		if t.Quota.Cache <= 0 {
			continue
		}
		var keys []string
		for ds, owner := range dsOwner {
			if owner == t.ID {
				keys = append(keys, ds)
			}
		}
		// Sum after sorting: ratio below divides by this float total, so
		// its rounding must not depend on per-process map order.
		sort.Strings(keys)
		var total unit.Bytes
		for _, ds := range keys {
			total += a.CacheQuota[ds]
		}
		if total <= t.Quota.Cache {
			continue
		}
		ratio := float64(t.Quota.Cache) / float64(total)
		for _, ds := range keys {
			a.CacheQuota[ds] = unit.Bytes(float64(a.CacheQuota[ds]) * ratio)
		}
	}

	// Egress: scale the tenant's remote-IO grants proportionally down
	// to its quota.
	for _, t := range p.Reg.List() {
		if t.Quota.Egress <= 0 {
			continue
		}
		mine := jobsOf[t.ID]
		var total unit.Bandwidth
		for _, j := range mine {
			total += a.RemoteIO[j.ID]
		}
		if total <= t.Quota.Egress {
			continue
		}
		ratio := float64(t.Quota.Egress) / float64(total)
		for _, j := range mine {
			if bw, ok := a.RemoteIO[j.ID]; ok {
				a.RemoteIO[j.ID] = unit.Bandwidth(float64(bw) * ratio)
			}
		}
	}
}

// BuildTenant composes Build's policy with the tenant-quota clamp. A
// nil or empty registry returns the inner policy unchanged, so callers
// can wire the tenant path unconditionally.
func BuildTenant(k SchedulerKind, cs CacheSystem, seed int64, reg *tenant.Registry) (core.Policy, error) {
	inner, err := Build(k, cs, seed)
	if err != nil {
		return nil, err
	}
	if reg == nil || reg.Len() == 0 {
		return inner, nil
	}
	return &TenantPolicy{Inner: inner, Reg: reg}, nil
}
