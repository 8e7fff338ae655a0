package policy

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tenant"
	"repro/internal/unit"
)

// stubPolicy returns a fixed assignment, written with grants keyed by
// job ID, letting the clamp be tested in isolation from the real
// allocators.
type stubPolicy struct {
	a refAssignment
}

func (s *stubPolicy) Name() string { return "stub" }
func (s *stubPolicy) Assign(_ core.Cluster, _ unit.Time, jobs []core.JobView) core.Assignment {
	// A fresh copy, so the clamp's in-place edits do not leak across calls.
	var out core.Assignment
	out.Reset(len(jobs))
	for i, j := range jobs {
		out.GPUs[i], out.RemoteIO[i] = s.a.GPUs[j.ID], s.a.RemoteIO[j.ID]
	}
	for k, v := range s.a.CacheQuota {
		out.CacheQuota[k] = v
	}
	return out
}

func clampRegistry(t *testing.T, tenants ...tenant.Tenant) *tenant.Registry {
	t.Helper()
	reg := tenant.NewRegistry()
	for _, tn := range tenants {
		if err := reg.Register(tn); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func view(id, ten string, slo tenant.SLOClass, gpus int, ds string, submit unit.Time) core.JobView {
	return core.JobView{ID: id, NumGPUs: gpus, Tenant: ten, SLO: slo, DatasetKey: ds, Submit: submit}
}

// TestTenantClampGPURevokeOrder: over-quota GPU grants are revoked from
// the back of the tenant's canonical queue, so its earliest/highest-SLO
// jobs keep their GPUs.
func TestTenantClampGPURevokeOrder(t *testing.T) {
	reg := clampRegistry(t, tenant.Tenant{ID: "g", Class: tenant.Sheddable, Quota: tenant.Quota{GPUs: 2}})
	jobs := []core.JobView{
		view("a", "g", tenant.Sheddable, 1, "ds-a", 0),
		view("b", "g", tenant.Sheddable, 1, "ds-b", 100),
		view("c", "g", tenant.Sheddable, 1, "ds-c", 200),
	}
	stub := &stubPolicy{a: refAssignment{
		GPUs:       map[string]int{"a": 1, "b": 1, "c": 1},
		CacheQuota: map[string]unit.Bytes{},
		RemoteIO:   map[string]unit.Bandwidth{"a": unit.MBpsOf(10), "b": unit.MBpsOf(10), "c": unit.MBpsOf(10)},
	}}
	p := &TenantPolicy{Inner: stub, Reg: reg}
	a := p.Assign(core.Cluster{GPUs: 8}, 0, jobs)
	g := gpusByID(a, jobs)
	if g["a"] != 1 || g["b"] != 1 {
		t.Errorf("front-of-queue jobs lost GPUs: %+v", g)
	}
	if g["c"] != 0 {
		t.Errorf("latest job kept its grant over quota: %+v", g)
	}
	if ioByID(a, jobs)["c"] != 0 {
		t.Error("revoked job kept its remote IO grant")
	}
}

// TestTenantClampGPUKeepsCritical: within one tenant, SLO rank beats
// submit time when choosing what to revoke.
func TestTenantClampGPUKeepsCritical(t *testing.T) {
	reg := clampRegistry(t, tenant.Tenant{ID: "m", Class: tenant.Standard, Quota: tenant.Quota{GPUs: 1}})
	jobs := []core.JobView{
		view("late-crit", "m", tenant.Critical, 1, "ds1", 500),
		view("early-shed", "m", tenant.Sheddable, 1, "ds2", 0),
	}
	stub := &stubPolicy{a: refAssignment{
		GPUs:       map[string]int{"late-crit": 1, "early-shed": 1},
		CacheQuota: map[string]unit.Bytes{},
		RemoteIO:   map[string]unit.Bandwidth{},
	}}
	p := &TenantPolicy{Inner: stub, Reg: reg}
	g := gpusByID(p.Assign(core.Cluster{GPUs: 8}, 0, jobs), jobs)
	if g["late-crit"] != 1 {
		t.Errorf("critical job revoked before sheddable: %+v", g)
	}
	if g["early-shed"] != 0 {
		t.Errorf("sheddable job survived quota pressure over critical: %+v", g)
	}
}

// TestTenantClampCacheScaling: a tenant over its cache quota has its
// attributed datasets scaled proportionally; other tenants' datasets
// are untouched.
func TestTenantClampCacheScaling(t *testing.T) {
	reg := clampRegistry(t,
		tenant.Tenant{ID: "capped", Class: tenant.Standard, Quota: tenant.Quota{Cache: unit.GiB(100)}},
		tenant.Tenant{ID: "free", Class: tenant.Standard},
	)
	jobs := []core.JobView{
		view("c1", "capped", tenant.Standard, 1, "ds-x", 0),
		view("c2", "capped", tenant.Standard, 1, "ds-y", 10),
		view("f1", "free", tenant.Standard, 1, "ds-z", 20),
	}
	stub := &stubPolicy{a: refAssignment{
		GPUs: map[string]int{"c1": 1, "c2": 1, "f1": 1},
		CacheQuota: map[string]unit.Bytes{
			"ds-x": unit.GiB(150),
			"ds-y": unit.GiB(50),
			"ds-z": unit.GiB(500),
		},
		RemoteIO: map[string]unit.Bandwidth{},
	}}
	p := &TenantPolicy{Inner: stub, Reg: reg}
	a := p.Assign(core.Cluster{GPUs: 8}, 0, jobs)
	got := a.CacheQuota["ds-x"] + a.CacheQuota["ds-y"]
	if got > unit.GiB(100) || got < unit.Bytes(float64(unit.GiB(100))*0.999) {
		t.Errorf("capped tenant holds %v cache, want ~100 GiB", got)
	}
	// Proportionality: ds-x had 3x ds-y's quota and must keep that ratio.
	if x, y := a.CacheQuota["ds-x"], a.CacheQuota["ds-y"]; x < 2*y || x > 4*y {
		t.Errorf("scale-down not proportional: ds-x %v vs ds-y %v", x, y)
	}
	if a.CacheQuota["ds-z"] != unit.GiB(500) {
		t.Errorf("unquota'd tenant's dataset was scaled: %v", a.CacheQuota["ds-z"])
	}
}

// TestTenantClampEgressScaling: remote IO grants scale down to the
// egress quota, proportionally across the tenant's jobs.
func TestTenantClampEgressScaling(t *testing.T) {
	reg := clampRegistry(t, tenant.Tenant{ID: "g", Class: tenant.Sheddable, Quota: tenant.Quota{Egress: unit.MBpsOf(100)}})
	jobs := []core.JobView{
		view("a", "g", tenant.Sheddable, 1, "ds-a", 0),
		view("b", "g", tenant.Sheddable, 1, "ds-b", 10),
	}
	stub := &stubPolicy{a: refAssignment{
		GPUs:       map[string]int{"a": 1, "b": 1},
		CacheQuota: map[string]unit.Bytes{},
		RemoteIO:   map[string]unit.Bandwidth{"a": unit.MBpsOf(150), "b": unit.MBpsOf(50)},
	}}
	p := &TenantPolicy{Inner: stub, Reg: reg}
	io := ioByID(p.Assign(core.Cluster{GPUs: 8}, 0, jobs), jobs)
	total := io["a"] + io["b"]
	if total > unit.MBpsOf(100) || total < unit.Bandwidth(float64(unit.MBpsOf(100))*0.999) {
		t.Errorf("egress after clamp = %v, want ~100 MB/s", total)
	}
	if x, y := io["a"], io["b"]; x < 2*y || x > 4*y {
		t.Errorf("egress scale-down not proportional: %v vs %v", x, y)
	}
}

// TestTenantClampNoQuotaNoChange: tenants without quotas (and the
// untenanted pool) pass through untouched, and BuildTenant with an
// empty registry returns the inner policy itself.
func TestTenantClampNoQuotaNoChange(t *testing.T) {
	reg := clampRegistry(t, tenant.Tenant{ID: "open", Class: tenant.Critical})
	jobs := []core.JobView{
		view("a", "open", tenant.Critical, 2, "ds-a", 0),
		view("b", "", tenant.Standard, 2, "ds-b", 10),
	}
	orig := refAssignment{
		GPUs:       map[string]int{"a": 2, "b": 2},
		CacheQuota: map[string]unit.Bytes{"ds-a": unit.GiB(10), "ds-b": unit.GiB(20)},
		RemoteIO:   map[string]unit.Bandwidth{"a": unit.MBpsOf(30), "b": unit.MBpsOf(40)},
	}
	p := &TenantPolicy{Inner: &stubPolicy{a: orig}, Reg: reg}
	a := p.Assign(core.Cluster{GPUs: 8}, 0, jobs)
	gpus, io := gpusByID(a, jobs), ioByID(a, jobs)
	for id, g := range orig.GPUs {
		if gpus[id] != g {
			t.Errorf("GPUs[%s] changed: %d -> %d", id, g, gpus[id])
		}
	}
	for ds, q := range orig.CacheQuota {
		if a.CacheQuota[ds] != q {
			t.Errorf("CacheQuota[%s] changed: %v -> %v", ds, q, a.CacheQuota[ds])
		}
	}
	for id, bw := range orig.RemoteIO {
		if io[id] != bw {
			t.Errorf("RemoteIO[%s] changed: %v -> %v", id, bw, io[id])
		}
	}

	inner, err := Build(FIFOKind, SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildTenant(FIFOKind, SiloD, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != inner.Name() {
		t.Errorf("nil registry wrapped the policy: %s", got.Name())
	}
	wrapped, err := BuildTenant(FIFOKind, SiloD, 1, clampRegistry(t, tenant.Tenant{ID: "x"}))
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.Name() != inner.Name()+"+tenant" {
		t.Errorf("non-empty registry did not wrap: %s", wrapped.Name())
	}
}
