package policy

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
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
// and one long-lived enhanced Gavel through a randomized, drifting round
// sequence — job sets that churn, shrink and go empty — and diffs every
// allocation, bit for bit, against a fresh solver and a fresh Gavel
// built for that call alone. Both keep workspace across calls and must
// reset all of it on every call, the empty one included; the fresh
// solver sets Cold, which shows the field is inert.
func TestMaxMinSolverHistoryIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	var long MaxMinSolver
	longGavel := &Gavel{Enhanced: true}
	cache := unit.TiB(2)
	io := unit.Gbps(8)
	cl := core.Cluster{GPUs: 64, Cache: cache, RemoteIO: io}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	views := randViews(rng, 24)
	for round := 0; round < 160; round++ {
		got := long.Storage(cache, io, views)
		want := (&MaxMinSolver{Cold: true}).Storage(cache, io, views)
		if len(got) != len(want) || len(got) != len(views) {
			t.Fatalf("round %d: %d allocs long-lived, %d fresh, %d jobs", round, len(got), len(want), len(views))
		}
		for id, w := range want {
			g, ok := got[id]
			if !ok || !same(float64(g.Cache), float64(w.Cache)) ||
				!same(float64(g.RemoteIO), float64(w.RemoteIO)) || !same(float64(g.Perf), float64(w.Perf)) {
				t.Fatalf("round %d job %s: long-lived %+v, fresh %+v", round, id, g, w)
			}
		}
		quota := refDatasetQuotas(views, want)
		running := views[:len(views)/2]
		gotBW := solveBandwidth(&long, cl, io, running, quota)
		wantBW := solveBandwidth(&MaxMinSolver{Cold: true}, cl, io, running, quota)
		if len(gotBW) != len(wantBW) || len(gotBW) != len(running) {
			t.Fatalf("round %d: %d grants long-lived, %d fresh, %d running", round, len(gotBW), len(wantBW), len(running))
		}
		for id, w := range wantBW {
			if g, ok := gotBW[id]; !ok || !same(float64(g), float64(w)) {
				t.Fatalf("round %d job %s: long-lived grant %v, fresh %v", round, id, g, w)
			}
		}
		now := unit.Time(round) * unit.Time(unit.Minute)
		la := snapshotAssignment(longGavel.Assign(cl, now, views))
		fa := (&Gavel{Enhanced: true}).Assign(cl, now, views)
		if err := sameAssignment(la, fa); err != nil {
			t.Fatalf("round %d (%d jobs): long-lived Gavel vs fresh: %v", round, len(views), err)
		}
		switch {
		case round%11 == 10:
			views = nil // every job left
		case round%7 == 6 && len(views) > 1:
			views = views[:len(views)-1-rng.Intn(len(views)/2+1)] // departures
		case round%17 == 16 || len(views) == 0:
			views = randViews(rng, 16+rng.Intn(16)) // a new job set
		default:
			mutateViews(rng, views)
		}
	}
}

// sameAssignment reports the first difference between two assignments
// over the same views, comparing every float bit for bit.
func sameAssignment(want, got core.Assignment) error {
	if len(want.GPUs) != len(got.GPUs) || len(want.RemoteIO) != len(got.RemoteIO) {
		return fmt.Errorf("shapes differ: %d/%d vs %d/%d GPU/IO grants",
			len(want.GPUs), len(want.RemoteIO), len(got.GPUs), len(got.RemoteIO))
	}
	for i, v := range want.GPUs {
		if w := got.GPUs[i]; w != v {
			return fmt.Errorf("GPUs[%d] %d vs %d", i, v, w)
		}
	}
	for i, v := range want.RemoteIO {
		if w := got.RemoteIO[i]; math.Float64bits(float64(w)) != math.Float64bits(float64(v)) {
			return fmt.Errorf("RemoteIO[%d] %v vs %v", i, v, w)
		}
	}
	return sameQuotas(want.CacheQuota, got.CacheQuota)
}

// snapshotAssignment deep-copies an Assignment (policies recycle its
// buffers across Assign calls).
func snapshotAssignment(a core.Assignment) core.Assignment {
	return core.Assignment{GPUs: slices.Clone(a.GPUs), CacheQuota: maps.Clone(a.CacheQuota), RemoteIO: slices.Clone(a.RemoteIO)}
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
				a := snapshotAssignment(polA.Assign(cl, 0, base))
				polB := b.fresh()
				if err := sameAssignment(a, polB.Assign(cl, 0, mutated)); err != nil {
					t.Fatalf("trial %d: %v after ignored-field mutation", trial, err)
				}
			}
		})
	}
}
