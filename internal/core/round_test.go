package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/unit"
)

// scriptPolicy is equalPolicy with every optional capability under the
// test's control, counting what Round asks of it.
type scriptPolicy struct {
	equalPolicy
	pure    bool
	mask    ViewFields
	invalid bool // next Assign over-grants GPUs

	calls int
}

func (p *scriptPolicy) Assign(c Cluster, now unit.Time, jobs []JobView) Assignment {
	p.calls++
	a := p.equalPolicy.Assign(c, now, jobs)
	if p.invalid {
		a.GPUs[0] = jobs[0].NumGPUs + 1
	}
	return a
}

func (p *scriptPolicy) PureAssign() bool              { return p.pure }
func (p *scriptPolicy) IgnoredViewFields() ViewFields { return p.mask }

func roundViews() []JobView {
	return []JobView{
		view("a", 2, "ds-a", unit.GiB(10), unit.MBpsOf(100)),
		view("b", 4, "ds-b", unit.GiB(20), unit.MBpsOf(50)),
	}
}

func TestRoundMemo(t *testing.T) {
	cases := []struct {
		name        string
		pol         *scriptPolicy
		fullResolve bool
		// mutate changes the second Solve's inputs relative to the first.
		mutate     func(c *Cluster, views []JobView)
		wantReused bool
	}{
		{name: "pure policy, same inputs: hit",
			pol: &scriptPolicy{pure: true}, wantReused: true},
		{name: "pure policy, non-ignored field differs: miss",
			pol:    &scriptPolicy{pure: true, mask: FieldRemainingBytes},
			mutate: func(_ *Cluster, v []JobView) { v[1].Running = true }},
		{name: "pure policy, only masked fields differ: hit",
			pol: &scriptPolicy{pure: true, mask: FieldRemainingBytes | FieldAttainedBytes},
			mutate: func(_ *Cluster, v []JobView) {
				v[0].RemainingBytes -= unit.GiB(1)
				v[1].AttainedBytes += unit.GiB(1)
			}, wantReused: true},
		{name: "pure policy, identity differs under a full mask: miss",
			pol:    &scriptPolicy{pure: true, mask: ^ViewFields(0)},
			mutate: func(_ *Cluster, v []JobView) { v[0].DatasetKey = "ds-b" }},
		{name: "pure policy, cluster differs: miss",
			pol:    &scriptPolicy{pure: true, mask: FieldRemainingBytes},
			mutate: func(c *Cluster, _ []JobView) { c.GPUs-- }},
		{name: "pure policy, job set differs: miss",
			pol: &scriptPolicy{pure: true},
			mutate: func(_ *Cluster, v []JobView) {
				v[1] = view("c", 1, "ds-b", unit.GiB(20), unit.MBpsOf(50))
			}},
		{name: "impure policy never memoizes",
			pol: &scriptPolicy{pure: false, mask: ^ViewFields(0)}},
		{name: "full resolve never memoizes",
			pol: &scriptPolicy{pure: true}, fullResolve: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRound(tc.pol, tc.fullResolve)
			c, views := testCluster(), roundViews()
			first, reused, err := r.Solve(c, 0, views)
			if err != nil || reused {
				t.Fatalf("first solve: reused=%v err=%v", reused, err)
			}
			want := tc.pol.equalPolicy.Assign(c, 0, views)
			if !reflect.DeepEqual(first, want) {
				t.Fatalf("first solve = %+v, want the policy's %+v", first, want)
			}
			// The caller reuses its view buffer between rounds; the memo
			// must hold its own copy.
			if tc.mutate != nil {
				tc.mutate(&c, views)
			}
			second, reused, err := r.Solve(c, 1, views)
			if err != nil {
				t.Fatal(err)
			}
			if reused != tc.wantReused {
				t.Fatalf("second solve reused = %v, want %v", reused, tc.wantReused)
			}
			wantCalls := 2
			if tc.wantReused {
				wantCalls = 1
				want = first
			} else {
				want = tc.pol.equalPolicy.Assign(c, 1, views)
			}
			if tc.pol.calls != wantCalls {
				t.Errorf("policy solved %d times, want %d", tc.pol.calls, wantCalls)
			}
			if !reflect.DeepEqual(second, want) {
				t.Errorf("second solve = %+v, want %+v", second, want)
			}
		})
	}
}

// TestRoundCapabilityFreePolicy: a policy declaring nothing is solved
// every round, like an impure one.
func TestRoundCapabilityFreePolicy(t *testing.T) {
	r := NewRound(equalPolicy{name: "bare"}, false)
	c, views := testCluster(), roundViews()
	for i := 0; i < 2; i++ {
		if _, reused, err := r.Solve(c, 0, views); err != nil || reused {
			t.Fatalf("solve %d: reused=%v err=%v", i, reused, err)
		}
	}
}

// TestRoundInvalidAssignment: an invalid assignment comes back with the
// validation error, is not memoized, and takes the previous memo with
// it (the policy's recycled maps no longer hold that solve).
func TestRoundInvalidAssignment(t *testing.T) {
	pol := &scriptPolicy{pure: true}
	r := NewRound(pol, false)
	c, views := testCluster(), roundViews()
	if _, _, err := r.Solve(c, 0, views); err != nil {
		t.Fatal(err)
	}
	changed := roundViews()
	changed[0].Running = true
	pol.invalid = true
	if _, reused, err := r.Solve(c, 1, changed); err == nil || reused || !strings.Contains(err.Error(), "gang") {
		t.Fatalf("invalid solve: reused=%v err=%v, want a gang-size error", reused, err)
	}
	pol.invalid = false
	// Neither the rejected inputs nor the ones memoized before them may hit.
	for _, v := range [][]JobView{views, changed, views} {
		if _, reused, err := r.Solve(c, 2, v); err != nil || reused {
			t.Fatalf("solve after the invalid one: reused=%v err=%v, want a fresh solve", reused, err)
		}
	}
	if pol.calls != 5 {
		t.Errorf("policy solved %d times, want 5", pol.calls)
	}
	if _, reused, _ := r.Solve(c, 3, views); !reused {
		t.Error("memo did not recover after a valid solve")
	}
}
