package loadgen

import (
	"fmt"

	"repro/internal/tenant"
)

// Status classifies one submission attempt's outcome.
// silod:enum
type Status int

// The submission outcomes.
const (
	// StatusAccepted: the scheduler queued or created the job.
	StatusAccepted Status = iota
	// StatusShed: the scheduler shed it with explicit backpressure
	// (HTTP 503 + Retry-After).
	StatusShed
	// StatusRejected: a terminal rejection (validation, quota).
	StatusRejected
	// StatusError: transport-level failure — no verdict from the
	// scheduler at all.
	StatusError
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusAccepted:
		return "accepted"
	case StatusShed:
		return "shed"
	case StatusRejected:
		return "rejected"
	case StatusError:
		return "error"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// TierStats aggregates outcomes for one SLO tier.
type TierStats struct {
	Offered  int `json:"offered"`
	Accepted int `json:"accepted"`
	Shed     int `json:"shed"`
	Rejected int `json:"rejected"`
	Errors   int `json:"errors"`
}

// ShedFraction is shed over offered (0 for an idle tier).
func (t TierStats) ShedFraction() float64 {
	if t.Offered == 0 {
		return 0
	}
	return float64(t.Shed) / float64(t.Offered)
}

// Report aggregates a replayed plan's outcomes, per tier and overall.
type Report struct {
	tiers [3]TierStats // indexed by SLOClass.Rank()
}

// Record tallies one outcome.
func (r *Report) Record(slo tenant.SLOClass, st Status) {
	t := &r.tiers[slo.Rank()]
	t.Offered++
	switch st {
	case StatusAccepted:
		t.Accepted++
	case StatusShed:
		t.Shed++
	case StatusRejected:
		t.Rejected++
	case StatusError:
		t.Errors++
	default:
		t.Errors++
	}
}

// Tier returns one tier's aggregate.
func (r *Report) Tier(slo tenant.SLOClass) TierStats {
	return r.tiers[slo.Rank()]
}

// Total sums all tiers.
func (r *Report) Total() TierStats {
	var sum TierStats
	for _, t := range r.tiers {
		sum.Offered += t.Offered
		sum.Accepted += t.Accepted
		sum.Shed += t.Shed
		sum.Rejected += t.Rejected
		sum.Errors += t.Errors
	}
	return sum
}

// ShedMonotone reports the serving mode's core SLO invariant: shed
// fractions never decrease as SLO rank loosens (sheddable >= standard
// >= critical).
func (r *Report) ShedMonotone() bool {
	return r.Tier(tenant.Sheddable).ShedFraction() >= r.Tier(tenant.Standard).ShedFraction() &&
		r.Tier(tenant.Standard).ShedFraction() >= r.Tier(tenant.Critical).ShedFraction()
}
