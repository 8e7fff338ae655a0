package policy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/unit"
)

// randViews builds a randomized job list whose storage/bandwidth
// programs exercise shared datasets, partial caching and capped jobs.
func randViews(rng *rand.Rand, n int) []core.JobView {
	views := make([]core.JobView, 0, n)
	for i := 0; i < n; i++ {
		ds := fmt.Sprintf("ds%d", rng.Intn(max(2, n/2)))
		size := unit.GiB(float64(10 + rng.Intn(200)))
		views = append(views, core.JobView{
			ID:          fmt.Sprintf("j%02d", i),
			NumGPUs:     1 + rng.Intn(4),
			Profile:     estimator.JobProfile{IdealThroughput: unit.MBpsOf(float64(50 + rng.Intn(400))), DatasetSize: size},
			DatasetKey:  ds,
			DatasetSize: size,
			CachedBytes: unit.Bytes(rng.Float64()) * size,
			EffectiveCached: unit.Bytes(rng.Float64() * 0.5 *
				float64(size)),
			RemainingBytes: size * unit.Bytes(1+rng.Intn(20)),
			AttainedBytes:  size * unit.Bytes(rng.Intn(5)),
			Running:        rng.Intn(2) == 0,
		})
	}
	return views
}

// mutateViews perturbs the fields that change between scheduling
// rounds (progress, cache state) without touching identities — the
// regime a long-lived solver sees in production.
func mutateViews(rng *rand.Rand, views []core.JobView) {
	for i := range views {
		switch rng.Intn(4) {
		case 0:
			views[i].RemainingBytes -= unit.Bytes(rng.Float64()) * views[i].RemainingBytes / 4
		case 1:
			views[i].CachedBytes = unit.Bytes(rng.Float64()) * views[i].DatasetSize
		case 2:
			views[i].EffectiveCached = unit.Bytes(rng.Float64()) * views[i].CachedBytes
		case 3:
			// Unchanged.
		}
	}
}

// TestMaxMinSolverHistoryIndependent drives one long-lived MaxMinSolver
// through a randomized, drifting round sequence and diffs every
// allocation, bit for bit, against a fresh solver built for that call
// alone. The solver carries nothing between calls, so the two must
// agree whatever came before; the fresh side sets Cold, which shows the
// field is inert. This is the gate any future cross-call scratch reuse
// (ROADMAP item 2) has to keep green.
func TestMaxMinSolverHistoryIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	var long MaxMinSolver
	cache := unit.TiB(2)
	io := unit.Gbps(8)
	cl := core.Cluster{GPUs: 64, Cache: cache, RemoteIO: io}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	views := randViews(rng, 24)
	for round := 0; round < 120; round++ {
		got := long.Storage(cache, io, views)
		want := (&MaxMinSolver{Cold: true}).Storage(cache, io, views)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d allocs long-lived, %d fresh", round, len(got), len(want))
		}
		for id, w := range want {
			g, ok := got[id]
			if !ok || !same(float64(g.Cache), float64(w.Cache)) ||
				!same(float64(g.RemoteIO), float64(w.RemoteIO)) || !same(float64(g.Perf), float64(w.Perf)) {
				t.Fatalf("round %d job %s: long-lived %+v, fresh %+v", round, id, g, w)
			}
		}
		quota := DatasetQuotas(views, want)
		running := views[:len(views)/2]
		gotBW := long.Bandwidth(cl, io, running, quota)
		wantBW := (&MaxMinSolver{Cold: true}).Bandwidth(cl, io, running, quota)
		if len(gotBW) != len(wantBW) {
			t.Fatalf("round %d: %d grants long-lived, %d fresh", round, len(gotBW), len(wantBW))
		}
		for id, w := range wantBW {
			if g, ok := gotBW[id]; !ok || !same(float64(g), float64(w)) {
				t.Fatalf("round %d job %s: long-lived grant %v, fresh %v", round, id, g, w)
			}
		}
		if round%17 == 16 {
			// Occasionally change the job set itself (arrival/departure).
			views = randViews(rng, 16+rng.Intn(16))
		} else {
			mutateViews(rng, views)
		}
	}
}

// snapshotAssignment deep-copies an Assignment's maps (policies recycle
// them across Assign calls).
func snapshotAssignment(a core.Assignment) (g map[string]int, c map[string]unit.Bytes, r map[string]unit.Bandwidth) {
	g = make(map[string]int, len(a.GPUs))
	for k, v := range a.GPUs {
		g[k] = v
	}
	c = make(map[string]unit.Bytes, len(a.CacheQuota))
	for k, v := range a.CacheQuota {
		c[k] = v
	}
	r = make(map[string]unit.Bandwidth, len(a.RemoteIO))
	for k, v := range a.RemoteIO {
		r[k] = v
	}
	return g, c, r
}

// TestIgnoredFieldsIrrelevant is the relevance fuzz behind every
// DeltaAssigner declaration: for each delta-aware policy, mutating ONLY
// the fields it declares ignored must leave the assignment untouched.
// A fresh policy instance evaluates the mutated views, so the check
// exercises a genuine re-solve, not the solver's own memo.
func TestIgnoredFieldsIrrelevant(t *testing.T) {
	// Gavel is only pure (hence delta-aware) under the TotalThroughput
	// objective — Build's default MaxMinFairness reads progress — so the
	// Gavel rows construct it directly with the pure objective.
	mkGavel := func(cs CacheSystem) func() core.Policy {
		return func() core.Policy {
			p, err := Build(GavelKind, cs, 7)
			if err != nil {
				panic(err)
			}
			p.(*Gavel).Objective = TotalThroughput
			return p
		}
	}
	mk := func(k SchedulerKind, cs CacheSystem) func() core.Policy {
		return func() core.Policy {
			p, err := Build(k, cs, 7)
			if err != nil {
				panic(err)
			}
			return p
		}
	}
	builds := []struct {
		name  string
		fresh func() core.Policy
	}{
		{"FIFO_SiloD", mk(FIFOKind, SiloD)},
		{"FIFO_Alluxio", mk(FIFOKind, Alluxio)},
		{"SJF_SiloD", mk(SJFKind, SiloD)},
		{"GavelTput_SiloD", mkGavel(SiloD)},
		{"GavelTput_CoorDL", mkGavel(CoorDL)},
	}
	rng := rand.New(rand.NewSource(99))
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			polA := b.fresh()
			ignored := core.PolicyIgnoredFields(polA)
			if ignored == 0 {
				t.Fatalf("%s is not delta-aware", b.name)
			}
			cl := core.Cluster{GPUs: 16, Cache: unit.TiB(1), RemoteIO: unit.Gbps(2)}
			for trial := 0; trial < 25; trial++ {
				base := randViews(rng, 12)
				mutated := append([]core.JobView(nil), base...)
				for i := range mutated {
					if ignored&core.FieldRemainingBytes != 0 {
						mutated[i].RemainingBytes += unit.GiB(float64(rng.Intn(100)))
					}
					if ignored&core.FieldAttainedBytes != 0 {
						mutated[i].AttainedBytes += unit.GiB(float64(rng.Intn(100)))
					}
					if ignored&core.FieldSubmit != 0 {
						mutated[i].Submit += unit.Time(rng.Intn(1000)) * unit.Time(unit.Minute)
					}
					if ignored&core.FieldRunning != 0 {
						mutated[i].Running = !mutated[i].Running
					}
					if ignored&core.FieldTenant != 0 {
						mutated[i].Tenant = "other"
					}
				}
				if !core.ViewsEquivalent(base, mutated, ignored) {
					t.Fatal("mutation escaped the ignored field set")
				}
				a := polA.Assign(cl, 0, base)
				ag, ac, ar := snapshotAssignment(a)
				polB := b.fresh()
				bAssign := polB.Assign(cl, 0, mutated)
				bg, bc, br := snapshotAssignment(bAssign)
				if len(ag) != len(bg) || len(ac) != len(bc) || len(ar) != len(br) {
					t.Fatalf("trial %d: assignment shapes differ", trial)
				}
				for k, v := range ag {
					if bg[k] != v {
						t.Fatalf("trial %d: GPU grant %s: %d vs %d after ignored-field mutation", trial, k, v, bg[k])
					}
				}
				for k, v := range ac {
					if bc[k] != v {
						t.Fatalf("trial %d: cache quota %s: %v vs %v after ignored-field mutation", trial, k, v, bc[k])
					}
				}
				for k, v := range ar {
					if br[k] != v {
						t.Fatalf("trial %d: remote IO %s: %v vs %v after ignored-field mutation", trial, k, v, br[k])
					}
				}
			}
		})
	}
}
