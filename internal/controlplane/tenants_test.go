package controlplane

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/tenant"
	"repro/internal/unit"
)

// tenantStack builds the usual HTTP stack with a tenant registry
// configured on the scheduler: "capped" (sheddable, 2 GPUs) and "vip"
// (critical, unlimited).
func tenantStack(t *testing.T) (*Client, *SchedulerServer, string, func()) {
	t.Helper()
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := tenant.NewRegistry()
	for _, tn := range []tenant.Tenant{
		{ID: "capped", Class: tenant.Sheddable, Quota: tenant.Quota{GPUs: 2}},
		{ID: "vip", Class: tenant.Critical},
	} {
		if err := reg.Register(tn); err != nil {
			t.Fatal(err)
		}
	}
	schedC, _, sched, stop := newStack(t, pol)
	sched.ConfigureTenants(reg)
	return schedC, sched, schedC.base, stop
}

func tenantSubmit(id, ten string, gpus int) SubmitJobRequest {
	req := submitReq(id, gpus, unit.GiB(10))
	req.Tenant = ten
	return req
}

// rawSubmit posts a submit without the client's retry/error wrapping so
// the test can observe the raw HTTP status code.
func rawSubmit(t *testing.T, base string, req SubmitJobRequest) (*http.Response, ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&er) // empty on success
	return resp, er
}

// TestSubmitOverQuotaRejected429: an over-quota submission is rejected
// with HTTP 429 and a descriptive error, the rejection shows up in the
// tenant metrics, and releasing quota (job completion) lets the same
// submission through.
func TestSubmitOverQuotaRejected429(t *testing.T) {
	schedC, sched, base, stop := tenantStack(t)
	defer stop()

	if err := schedC.SubmitJob(tenantSubmit("j1", "capped", 2)); err != nil {
		t.Fatal(err)
	}
	resp, er := rawSubmit(t, base, tenantSubmit("j2", "capped", 1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: HTTP %d, want 429 (%s)", resp.StatusCode, er.Error)
	}
	if er.Error == "" {
		t.Error("429 carried no error body")
	}

	if body := scrape(t, base); !strings.Contains(body, "\nsilod_tenant_rejections_total{") {
		t.Error("GET /metrics does not name silod_tenant_rejections_total")
	}
	snap := sched.Registry().Snapshot()
	rejections := snap.CounterValue("silod_tenant_rejections_total", map[string]string{"tenant": "capped", "resource": "gpus"})
	admissions := snap.CounterValue("silod_tenant_admissions_total", map[string]string{"tenant": "capped"})
	if rejections != 1 {
		t.Errorf("silod_tenant_rejections_total{capped,gpus} = %v, want 1", rejections)
	}
	if admissions != 1 {
		t.Errorf("silod_tenant_admissions_total{capped} = %v, want 1", admissions)
	}

	// Completing j1 releases its quota; the rejected submission now fits.
	if err := schedC.doJSON("POST", "/v1/progress", ProgressRequest{JobID: "j1", Done: true}, nil); err != nil {
		t.Fatal(err)
	}
	if err := schedC.SubmitJob(tenantSubmit("j2", "capped", 1)); err != nil {
		t.Fatalf("submit after quota release: %v", err)
	}
}

// TestSubmitUnknownTenant400: an unregistered tenant is a malformed
// request (400), not a quota rejection (429).
func TestSubmitUnknownTenant400(t *testing.T) {
	_, _, base, stop := tenantStack(t)
	defer stop()
	resp, _ := rawSubmit(t, base, tenantSubmit("j1", "ghost", 1))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown tenant: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestSubmitUntenantedWithoutRegistry: a scheduler without
// ConfigureTenants accepts tenantless submissions unchanged (the flat
// pool), and tenant-tagged ones too — admission is simply off.
func TestSubmitUntenantedWithoutRegistry(t *testing.T) {
	pol, err := policy.Build(policy.FIFOKind, policy.SiloD, 1)
	if err != nil {
		t.Fatal(err)
	}
	schedC, _, _, stop := newStack(t, pol)
	defer stop()
	if err := schedC.SubmitJob(submitReq("plain", 1, unit.GiB(10))); err != nil {
		t.Fatal(err)
	}
	if err := schedC.SubmitJob(tenantSubmit("tagged", "anyone", 1)); err != nil {
		t.Fatalf("tenant-tagged submit without registry: %v", err)
	}
}

// TestTenantsEndpoint: GET /v1/tenants reports quotas and live usage.
func TestTenantsEndpoint(t *testing.T) {
	schedC, _, _, stop := tenantStack(t)
	defer stop()
	if err := schedC.SubmitJob(tenantSubmit("j1", "capped", 2)); err != nil {
		t.Fatal(err)
	}
	if err := schedC.SubmitJob(tenantSubmit("j2", "vip", 4)); err != nil {
		t.Fatal(err)
	}
	ts, err := schedC.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("got %d tenants, want 2: %+v", len(ts), ts)
	}
	// List is sorted by ID: capped, vip.
	if ts[0].ID != "capped" || ts[1].ID != "vip" {
		t.Fatalf("tenant order: %+v", ts)
	}
	if ts[0].Class != "sheddable" || ts[0].GPUQuota != 2 || ts[0].GPUsInUse != 2 || ts[0].ActiveJobs != 1 {
		t.Errorf("capped status: %+v", ts[0])
	}
	if ts[1].Class != "critical" || ts[1].GPUQuota != 0 || ts[1].GPUsInUse != 4 || ts[1].ActiveJobs != 1 {
		t.Errorf("vip status: %+v", ts[1])
	}
	if ts[0].CacheInUse != unit.GiB(10) {
		t.Errorf("capped cache in use = %v, want 10 GiB", ts[0].CacheInUse)
	}
}
