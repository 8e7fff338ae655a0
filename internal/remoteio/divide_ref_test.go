package remoteio

// The egress divisions the Divider replaced, kept verbatim (over plain
// slices, up to the ref prefix) as a bit-identity oracle: the provider
// fair share with its Demand type, the greedy allocator's SLO-weighted
// water-fill, the water-fill tail of Gavel's top-up, the simulator's
// "grants, then fill the leftover" step and its static equal split.
// Every grant the Divider computes on the inputs those callers produce
// must equal theirs to the last bit.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/unit"
)

type refDemand struct {
	JobID string
	Want  unit.Bandwidth
}

// refFairShareInto is the provider fair share: progressive filling in
// (want, JobID) order with negative wants clamped to 0.
func refFairShareInto(capacity unit.Bandwidth, demands []refDemand) []unit.Bandwidth {
	out := make([]unit.Bandwidth, len(demands))
	if capacity <= 0 || len(demands) == 0 {
		return out
	}
	idx := make([]int, 0, len(demands))
	wants := make([]float64, 0, len(demands))
	for i, d := range demands {
		w := float64(d.Want)
		if w < 0 {
			w = 0
		}
		idx = append(idx, i)
		wants = append(wants, w)
	}
	sort.Slice(idx, func(a, b int) bool {
		wa, wb := wants[idx[a]], wants[idx[b]]
		if wa != wb {
			return wa < wb
		}
		return demands[idx[a]].JobID < demands[idx[b]].JobID
	})
	remaining := float64(capacity)
	left := len(idx)
	for _, i := range idx {
		level := remaining / float64(left)
		grant := wants[i]
		if grant > level {
			grant = level
		}
		out[i] = unit.Bandwidth(grant)
		remaining -= grant
		left--
	}
	return out
}

// refEqualShareInto is the provider's static equal split.
func refEqualShareInto(capacity unit.Bandwidth, demands []refDemand) []unit.Bandwidth {
	var out []unit.Bandwidth
	if len(demands) == 0 {
		return out
	}
	share := float64(capacity) / float64(len(demands))
	for _, d := range demands {
		w := float64(d.Want)
		if w < 0 {
			w = 0
		}
		if w > share {
			w = share
		}
		out = append(out, unit.Bandwidth(w))
	}
	return out
}

// refGreedyFair is the greedy allocator's weighted water-fill over
// instantaneous demands in ascending demand/weight order, ties to the
// job ID.
func refGreedyFair(total unit.Bandwidth, demand, weight []float64, ids []string) []float64 {
	n := len(demand)
	grant := make([]float64, n)
	type ranked struct {
		score float64
		id    string
		i     int
	}
	order := make([]ranked, 0, n)
	var wsum float64
	for k := range demand {
		order = append(order, ranked{demand[k] / weight[k], ids[k], k})
		wsum += weight[k]
	}
	slices.SortFunc(order, func(a, b ranked) int {
		switch {
		case a.score == b.score:
			if a.id < b.id {
				return -1
			}
			if a.id > b.id {
				return 1
			}
			return 0
		case a.score < b.score:
			return -1
		}
		return 1
	})
	remaining := float64(total)
	wleft := wsum
	for _, o := range order {
		level := remaining * weight[o.i] / wleft
		g := math.Min(demand[o.i], level)
		grant[o.i] = g
		remaining -= g
		wleft -= weight[o.i]
	}
	return grant
}

// refGavelTail is the water-fill tail of Gavel's top-up: the positions
// whose gap exceeds 1e-9 share remaining, smallest gap first, on top of
// their grants.
func refGavelTail(grant []float64, remaining float64, want []float64, ids []string) []float64 {
	grant = slices.Clone(grant)
	var unmet []int
	for k, w := range want {
		if w > 1e-9 {
			unmet = append(unmet, k)
		}
	}
	if remaining <= 1e-9 || len(unmet) == 0 {
		return grant
	}
	slices.SortFunc(unmet, func(a, b int) int {
		switch {
		case want[a] == want[b]:
			if ids[a] < ids[b] {
				return -1
			}
			if ids[a] > ids[b] {
				return 1
			}
			return 0
		case want[a] < want[b]:
			return -1
		}
		return 1
	})
	left := len(unmet)
	for _, k := range unmet {
		give := min(want[k], remaining/float64(left))
		grant[k] += give
		remaining -= give
		left--
	}
	return grant
}

// refEngineTopUp is the simulator's work-conserving step: keep the
// policy's grants, then fair-share the leftover over the residual
// demands above 1e-9.
func refEngineTopUp(capacity float64, alloc, demands []float64, ids []string) []float64 {
	grants := make([]float64, len(alloc))
	var allocated float64
	for i, a := range alloc {
		if a > 0 {
			grants[i] = a
			allocated += a
		}
	}
	leftover := capacity - allocated
	if leftover <= 0 {
		return grants
	}
	var resid []refDemand
	var residIdx []int
	for i := range demands {
		if extra := demands[i] - grants[i]; extra > 1e-9 {
			resid = append(resid, refDemand{ids[i], unit.Bandwidth(extra)})
			residIdx = append(residIdx, i)
		}
	}
	if len(resid) == 0 {
		return grants
	}
	share := refFairShareInto(unit.Bandwidth(leftover), resid)
	for k, i := range residIdx {
		grants[i] += float64(share[k])
	}
	return grants
}

// divideCase is one random instance: n jobs with unique IDs and wants
// drawn so that zero, sub-1e-9 and exactly equal wants (ordered only by
// the ID tie-break) are common.
type divideCase struct {
	wants    []float64
	weights  []float64 // {0.5, 1, 2}, or all 1
	alloc    []float64 // a policy's grants: zero for some jobs
	ids      []string
	capacity float64
}

func randomCase(rng *rand.Rand, negative bool) divideCase {
	n := 1 + rng.Intn(24)
	c := divideCase{
		wants:   make([]float64, n),
		weights: make([]float64, n),
		alloc:   make([]float64, n),
		ids:     make([]string, n),
	}
	pool := []float64{0, 4e-10, 1e-9, 2e-9, 5e6, 2.5e7, 1e8, 1e8}
	unitWeights := rng.Intn(3) == 0
	var total float64
	for i := range c.wants {
		if rng.Intn(2) == 0 {
			c.wants[i] = pool[rng.Intn(len(pool))]
		} else {
			c.wants[i] = rng.Float64() * 2e8
		}
		if negative && rng.Intn(8) == 0 {
			c.wants[i] = -c.wants[i] - 1
		}
		c.weights[i] = 1
		if !unitWeights {
			c.weights[i] = []float64{0.5, 1, 2}[rng.Intn(3)]
		}
		if rng.Intn(3) == 0 {
			c.alloc[i] = rng.Float64() * max(c.wants[i], 1e7)
		}
		// Shuffled IDs, so the tie-break is not index order.
		c.ids[i] = fmt.Sprintf("job-%03d", rng.Intn(1000)*32+i)
		total += max(c.wants[i], 0)
	}
	switch rng.Intn(5) {
	case 0:
		c.capacity = 0
	case 1:
		c.capacity = total * 2 // every want met
	default:
		c.capacity = rng.Float64() * total
	}
	return c
}

// firstDiff reports the first index where got and want differ in bits.
func firstDiff(got, want []float64) (int, bool) {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i, false
		}
	}
	return -1, len(got) == len(want)
}

func bandwidths(bw []unit.Bandwidth) []float64 {
	out := make([]float64, len(bw))
	for i, b := range bw {
		out[i] = float64(b)
	}
	return out
}

// TestDividerMatchesReplacedDivisions runs every division the Divider
// replaced against it on the inputs that division's callers produce.
func TestDividerMatchesReplacedDivisions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var d Divider
	const instances = 2000
	for it := 0; it < instances; it++ {
		c := randomCase(rng, it%2 == 1)
		n := len(c.wants)
		check := func(name string, got, want []float64) {
			t.Helper()
			if i, ok := firstDiff(got, want); !ok {
				t.Fatalf("instance %d, %s: job %d gets %v, the replaced division %v\ncase %+v",
					it, name, i, got, want, c)
			}
		}

		// The provider fair share, negative wants and zero capacity
		// included.
		demands := make([]refDemand, n)
		for i := range demands {
			demands[i] = refDemand{c.ids[i], unit.Bandwidth(c.wants[i])}
		}
		grant := make([]float64, n)
		d.WaterFill(grant, c.capacity, c.wants, nil, c.ids)
		check("fair share", grant, bandwidths(refFairShareInto(unit.Bandwidth(c.capacity), demands)))

		grant = make([]float64, n)
		EqualSplit(grant, c.capacity, c.wants)
		check("equal split", grant, bandwidths(refEqualShareInto(unit.Bandwidth(c.capacity), demands)))

		// The remaining callers' wants are never negative.
		wants := make([]float64, n)
		for i, w := range c.wants {
			wants[i] = max(w, 0)
		}

		grant = make([]float64, n)
		d.WaterFill(grant, c.capacity, wants, c.weights, c.ids)
		check("greedy weighted fill", grant, refGreedyFair(unit.Bandwidth(c.capacity), wants, c.weights, c.ids))

		// Gavel zeroes the wants at or below 1e-9 and fills only a
		// remaining above 1e-9.
		remaining := c.capacity / 3
		gavelWant := make([]float64, n)
		for i, w := range wants {
			if w > 1e-9 {
				gavelWant[i] = w
			}
		}
		grant = slices.Clone(c.alloc)
		if remaining > 1e-9 {
			d.WaterFill(grant, remaining, gavelWant, nil, c.ids)
		}
		check("gavel top-up tail", grant, refGavelTail(c.alloc, remaining, wants, c.ids))

		grant = slices.Clone(c.alloc)
		d.TopUp(grant, c.capacity, wants, c.ids)
		check("engine top-up", grant, refEngineTopUp(c.capacity, c.alloc, wants, c.ids))
	}
}
