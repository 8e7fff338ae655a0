package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/unit"
	"repro/internal/workload"
)

// The multi-tenant chaos experiment: three tenants (one per SLO class)
// share an 8-GPU cluster while a deterministic fault schedule takes
// half the GPUs and half the cache away mid-run. The reverse-SLO
// preemption order plus SLO-weighted cache/IO allocation should keep
// the critical tenant inside its fault-free envelope — modulo the
// estimator's remote-IO-bound floor when its cache is hit — while the
// sheddable tenant absorbs the lost capacity.

// TenantChaosCluster is the experiment cluster: the 8-V100 micro
// cluster with the cache halved to 1 TiB so the three tenants' ~2 TiB
// of datasets contend for it.
func TenantChaosCluster() core.Cluster {
	return core.Cluster{GPUs: 8, Cache: unit.TiB(1), RemoteIO: unit.MBpsOf(200)}
}

// TenantChaosRegistry returns the three-tenant registry: acme
// (critical, unlimited), beta (standard, unlimited), gamma (sheddable,
// capped at 3 GPUs and 100 MB/s egress so the admission controller and
// the policy clamp both have something to enforce).
func TenantChaosRegistry() *tenant.Registry {
	reg := tenant.NewRegistry()
	for _, t := range []tenant.Tenant{
		{ID: "acme", Class: tenant.Critical},
		{ID: "beta", Class: tenant.Standard},
		{ID: "gamma", Class: tenant.Sheddable, Quota: tenant.Quota{GPUs: 3, Egress: unit.MBpsOf(100)}},
	} {
		if err := reg.Register(t); err != nil {
			panic(fmt.Sprintf("experiments: tenant registry: %v", err)) // static set; cannot fail
		}
	}
	return reg
}

// TenantChaosJobs builds the eight-job trace: two critical ResNet-50
// jobs on a shared 400 GiB dataset, two standard EfficientNetB1 jobs on
// a shared 400 GiB dataset, and four sheddable ResNet-50 jobs on
// private 300 GiB datasets. All jobs are 1-GPU and submitted at t=0.
func TenantChaosJobs() ([]workload.JobSpec, error) {
	rn50, err := workload.ModelByName("ResNet-50")
	if err != nil {
		return nil, err
	}
	eff, err := workload.ModelByName("EfficientNetB1")
	if err != nil {
		return nil, err
	}
	mk := func(id string, m workload.Model, ds workload.Dataset, ten string, slo tenant.SLOClass, epochs float64) workload.JobSpec {
		spec := workload.JobSpec{ID: id, Model: m, Dataset: ds, NumGPUs: 1, Tenant: ten, SLO: slo}
		spec.NumSteps = int64(epochs * float64(ds.Size) / float64(spec.StepBytesTotal()))
		if spec.NumSteps < 1 {
			spec.NumSteps = 1
		}
		return spec
	}
	critDS := workload.Dataset{Name: "crit-images", Size: unit.GiB(400)}
	stdDS := workload.Dataset{Name: "std-images", Size: unit.GiB(400)}
	jobs := []workload.JobSpec{
		mk("crit-a", rn50, critDS, "acme", tenant.Critical, 6),
		mk("crit-b", rn50, critDS, "acme", tenant.Critical, 6),
		mk("std-a", eff, stdDS, "beta", tenant.Standard, 5),
		mk("std-b", eff, stdDS, "beta", tenant.Standard, 5),
	}
	for i := 0; i < 4; i++ {
		ds := workload.Dataset{Name: fmt.Sprintf("shed-images-%c", 'a'+i), Size: unit.GiB(300)}
		jobs = append(jobs, mk(fmt.Sprintf("shed-%c", 'a'+i), rn50, ds, "gamma", tenant.Sheddable, 4))
	}
	return jobs, nil
}

// TenantChaosSchedule is the deterministic capacity-shock schedule: at
// t=2h half the GPUs die, at t=3h half the cache is lost, and both
// recover at t=8h.
func TenantChaosSchedule() *faults.Schedule {
	return &faults.Schedule{Events: []faults.Event{
		{At: unit.Time(2 * 3600), Kind: faults.KindGPULoss, GPUs: 4},
		{At: unit.Time(3 * 3600), Kind: faults.KindCacheLoss, Cache: unit.GiB(512)},
		{At: unit.Time(8 * 3600), Kind: faults.KindGPURestore, GPUs: 4},
		{At: unit.Time(8 * 3600), Kind: faults.KindCacheRestore, Cache: unit.GiB(512)},
	}}
}

// TenantChaosRow is one (engine, SLO class) outcome.
type TenantChaosRow struct {
	Engine      string
	Class       string
	CleanJCT    unit.Duration // class mean JCT, fault-free run
	FaultJCT    unit.Duration // class mean JCT, chaos run
	Preemptions float64       // fault preemptions charged to the class (chaos run)
	TrainedGiB  float64       // tenant trained bytes (chaos run)
}

// TenantChaosResult aggregates the experiment.
type TenantChaosResult struct {
	Rows []TenantChaosRow
	// CleanMakespan / FaultMakespan are keyed by engine name.
	CleanMakespan map[string]unit.Duration
	FaultMakespan map[string]unit.Duration
}

// tenantChaosArm is one simulation run's harvest.
type tenantChaosArm struct {
	res  *sim.Result
	snap metrics.Snapshot
}

// runTenantChaosArm executes one (engine, faulted?) run with a fresh
// metric registry and the tenant-aware policy stack.
func runTenantChaosArm(eng sim.Engine, faulted bool, seed int64) (*tenantChaosArm, error) {
	jobs, err := TenantChaosJobs()
	if err != nil {
		return nil, err
	}
	pol, err := policy.BuildTenant(policy.FIFOKind, policy.SiloD, seed, TenantChaosRegistry())
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry("tenant-chaos")
	cfg := sim.Config{
		Cluster:         TenantChaosCluster(),
		Policy:          pol,
		System:          policy.SiloD,
		Engine:          eng,
		Seed:            seed,
		MetricsInterval: 20 * unit.Minute,
		Metrics:         reg,
	}
	if faulted {
		cfg.Faults = TenantChaosSchedule()
	}
	res, err := sim.Run(cfg, jobs)
	if err != nil {
		return nil, fmt.Errorf("tenant-chaos %v faulted=%v: %w", eng, faulted, err)
	}
	return &tenantChaosArm{res: res, snap: reg.Snapshot()}, nil
}

// classMeanJCT averages the JCT of the jobs whose tenant has the class.
func classMeanJCT(res *sim.Result, jobs []workload.JobSpec, class tenant.SLOClass) unit.Duration {
	classOf := make(map[string]tenant.SLOClass, len(jobs))
	for _, j := range jobs {
		classOf[j.ID] = j.SLO
	}
	var sum float64
	var n int
	for _, st := range res.Jobs {
		if classOf[st.ID] == class {
			sum += float64(st.JCT())
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return unit.Duration(sum / float64(n))
}

// MultiTenantChaos runs the seeded multi-tenant chaos experiment on
// both engines, fault-free and faulted (four arms), and reports the
// per-class protection outcome.
func MultiTenantChaos(o Options) (*TenantChaosResult, error) {
	jobs, err := TenantChaosJobs()
	if err != nil {
		return nil, err
	}
	engines := []sim.Engine{sim.Fluid, sim.Batch}
	arms, err := mapArms(o, 2*len(engines), func(i int) (*tenantChaosArm, error) {
		return runTenantChaosArm(engines[i/2], i%2 == 1, o.seed())
	})
	if err != nil {
		return nil, err
	}
	tenantOf := map[tenant.SLOClass]string{
		tenant.Critical:  "acme",
		tenant.Standard:  "beta",
		tenant.Sheddable: "gamma",
	}
	out := &TenantChaosResult{
		CleanMakespan: make(map[string]unit.Duration),
		FaultMakespan: make(map[string]unit.Duration),
	}
	for ei, eng := range engines {
		clean, faulted := arms[ei*2], arms[ei*2+1]
		out.CleanMakespan[eng.String()] = clean.res.Makespan
		out.FaultMakespan[eng.String()] = faulted.res.Makespan
		for _, class := range tenant.Classes() {
			out.Rows = append(out.Rows, TenantChaosRow{
				Engine:   eng.String(),
				Class:    class.String(),
				CleanJCT: classMeanJCT(clean.res, jobs, class),
				FaultJCT: classMeanJCT(faulted.res, jobs, class),
				Preemptions: faulted.snap.CounterValue("silod_faults_slo_preemptions_total",
					map[string]string{"slo": class.String()}),
				TrainedGiB: faulted.snap.CounterValue("silod_tenant_trained_bytes_total",
					map[string]string{"tenant": tenantOf[class]}) / float64(unit.GiB(1)),
			})
		}
	}
	return out, nil
}

// Table renders the per-class chaos outcome.
func (r *TenantChaosResult) Table() *report.Table {
	t := report.NewTable("Multi-tenant chaos: per-SLO-class outcome (4 of 8 GPUs + 512 GiB cache lost 2h-8h)",
		"Engine", "Class", "Clean JCT (min)", "Chaos JCT (min)", "Slowdown", "Fault preempts", "Trained GiB")
	for _, row := range r.Rows {
		slow := "-"
		if row.CleanJCT > 0 {
			slow = fmt.Sprintf("%.2fx", float64(row.FaultJCT)/float64(row.CleanJCT))
		}
		t.AddRow(row.Engine, row.Class,
			fmt.Sprintf("%.0f", row.CleanJCT.Minutes()),
			fmt.Sprintf("%.0f", row.FaultJCT.Minutes()),
			slow,
			fmt.Sprintf("%.0f", row.Preemptions),
			fmt.Sprintf("%.0f", row.TrainedGiB),
		)
	}
	return t
}
