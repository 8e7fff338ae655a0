package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/unit"
	"repro/internal/workload"
)

// TestRemoteIOGrants drives the shared throttle through each of its
// exits. Three jobs with f* = 100 MB/s share 90 MB/s of egress; job a
// is 95% cached (demand 5), b and c are cold (demand 100).
func TestRemoteIOGrants(t *testing.T) {
	tests := []struct {
		name                string
		noControl, noWorkCo bool
		alloc               [3]float64 // policy grants, MB/s
		hits                [3]float64
		floor               []float64 // MB/s; nil for the fluid engine
		want                [3]float64
	}{
		{
			name: "nothing allocated: equal split capped at demand, remainder idles",
			hits: [3]float64{0.95, 0, 0},
			want: [3]float64{5, 30, 30},
		},
		{
			name:      "IO control disabled: allocations ignored",
			noControl: true,
			alloc:     [3]float64{10, 20, 60},
			hits:      [3]float64{0.95, 0, 0},
			want:      [3]float64{5, 30, 30},
		},
		{
			name:     "not work-conserving: grants returned as allocated",
			noWorkCo: true,
			alloc:    [3]float64{10, 20, 0},
			hits:     [3]float64{0.95, 0, 0},
			want:     [3]float64{10, 20, 0},
		},
		{
			// Leftover 60 goes to b (residual 80) and c (residual 100),
			// not to a, whose grant already exceeds its demand.
			name:  "leftover fair-shared over residual demand only",
			alloc: [3]float64{10, 20, 0},
			hits:  [3]float64{0.95, 0, 0},
			want:  [3]float64{10, 50, 30},
		},
		{
			name:  "residual demand below the leftover: filled exactly",
			alloc: [3]float64{10, 20, 0},
			hits:  [3]float64{0.95, 0.75, 0.9},
			want:  [3]float64{10, 25, 10},
		},
		{
			name: "fully cached job has no demand",
			hits: [3]float64{1, 0, 0},
			want: [3]float64{0, 30, 30},
		},
		{
			name:  "batch floor: an in-flight fetch is demand despite a full cache",
			hits:  [3]float64{1, 0, 0},
			floor: []float64{8, 0, 0},
			want:  [3]float64{8, 30, 30},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			e := engine{
				cfg: Config{DisableIOControl: tc.noControl, DisableWorkConserving: tc.noWorkCo},
				eff: core.Cluster{RemoteIO: unit.MBpsOf(90)},
			}
			var running []*jobRT
			for i, id := range []string{"a", "b", "c"} {
				running = append(running, &jobRT{
					spec:     workload.JobSpec{ID: id},
					profile:  estimator.JobProfile{IdealThroughput: unit.MBpsOf(100)},
					remoteIO: unit.MBpsOf(tc.alloc[i]),
				})
			}
			var floor []float64
			for _, f := range tc.floor {
				floor = append(floor, float64(unit.MBpsOf(f)))
			}
			got := e.remoteIOGrants(running, tc.hits[:], floor)
			for i, w := range tc.want {
				if g := got[i].MBpsValue(); math.Abs(g-w) > 1e-6 {
					t.Errorf("job %s: grant %.6f MB/s, want %v", running[i].spec.ID, g, w)
				}
			}
		})
	}
}

// TestRemoteIOGrantsAllocatesNothing pins remoteIOGrants' silod:hotpath
// contract on its work-conserving path: one job holds a policy grant,
// the leftover egress is topped up over two residual demands, and a
// warm chassis allocates nothing.
func TestRemoteIOGrantsAllocatesNothing(t *testing.T) {
	e := engine{eff: core.Cluster{RemoteIO: unit.MBpsOf(90)}}
	var running []*jobRT
	for i, id := range []string{"a", "b", "c"} {
		running = append(running, &jobRT{
			spec:     workload.JobSpec{ID: id},
			profile:  estimator.JobProfile{IdealThroughput: unit.MBpsOf(100)},
			remoteIO: unit.MBpsOf([]float64{10, 0, 0}[i]),
		})
	}
	hits := []float64{0, 0.5, 0}
	grants := e.remoteIOGrants(running, hits, nil)
	// Leftover 80 over residuals 90 (a), 50 (b) and 100 (c): 26⅔ each.
	if g := grants[1].MBpsValue(); math.Abs(g-80.0/3) > 1e-6 {
		t.Fatalf("b's grant %.6f MB/s, want the top-up's 26.67", g)
	}
	if got := testing.AllocsPerRun(100, func() {
		e.remoteIOGrants(running, hits, nil)
	}); got != 0 {
		t.Errorf("remoteIOGrants: %v allocs/op, want 0", got)
	}
}
