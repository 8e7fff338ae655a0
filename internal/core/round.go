package core

import "repro/internal/unit"

// Round is the solve step of Algorithm 1 — ask the policy for a joint
// assignment, or reuse the last one, then check it — written once for
// every driver of a policy: both simulator engines, the control
// plane's round loop and the testbed. It is the only code that asks a
// policy for its optional capabilities, holds the solve-skip memo,
// calls Policy.Assign and validates the result; drivers build job
// views before Solve and apply the assignment after it.
//
// The memo holds the last (cluster, views) the policy solved against
// and the assignment it produced. It is reused when, and only when:
//
//   - the policy declares itself pure (PureAssigner): Assign is a
//     function of (cluster, views) alone, so equal inputs reproduce the
//     assignment byte for byte;
//   - the round was not built in full-resolve mode;
//   - the cluster is unchanged; and
//   - the views are equal outside the fields the policy declares it
//     never reads (DeltaAssigner; exact match when it declares none).
//
// Re-applying a reused assignment is a no-op on every observable, so a
// hit cannot change results. A Round is not safe for concurrent use.
type Round struct {
	policy  Policy
	memoize bool
	ignore  ViewFields

	ok     bool // the memo below is usable
	c      Cluster
	views  []JobView
	assign Assignment
	val    ValidateScratch
}

// NewRound builds the round driver for p. fullResolve selects the
// from-scratch reference path the byte-identity gates compare against:
// it disables the memo.
func NewRound(p Policy, fullResolve bool) *Round {
	r := &Round{policy: p}
	if !fullResolve && policyPure(p) {
		r.memoize = true
		r.ignore = PolicyIgnoredFields(p)
	}
	return r
}

// Solve returns the policy's assignment for (c, views), validated
// against both. reused reports a memo hit: the assignment is the one
// the previous Solve returned and the policy was not called. An invalid
// assignment comes back with the validation error and is never
// memoized. The returned maps are valid until the next Solve.
func (r *Round) Solve(c Cluster, now unit.Time, views []JobView) (a Assignment, reused bool, err error) {
	if r.ok && c == r.c && ViewsEquivalent(views, r.views, r.ignore) {
		return r.assign, true, nil
	}
	// Policies recycle their assignment's maps (Assignment.Reset), so
	// the memoized assignment dies with this call whether or not the
	// new one replaces it.
	r.ok = false
	a = r.policy.Assign(c, now, views)
	if err = a.ValidateWith(c, views, &r.val); err != nil {
		return a, false, err
	}
	if r.memoize {
		r.c = c
		r.views = append(r.views[:0], views...)
		r.assign = a
		r.ok = true
	}
	return a, false, nil
}
