// Package core defines the SiloD scheduling framework (§3, Algorithm 1):
// the resource model in which cache capacity and remote IO bandwidth are
// first-class resources next to GPUs, the policy interface through which
// existing schedulers plug in, and the regular/irregular partitioning of
// §6 that protects the analytical estimator from jobs that violate its
// assumptions.
//
// The framework is deliberately mechanism-free: enforcement of the
// returned Assignment is the data manager's job (package datamgr), and
// the passage of time is the simulator's or testbed's job.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/estimator"
	"repro/internal/tenant"
	"repro/internal/unit"
)

// Cluster is totalResource in Algorithm 1: everything the scheduler may
// hand out. SiloD's contribution is the presence of Cache and RemoteIO
// here.
type Cluster struct {
	GPUs     int
	Cache    unit.Bytes
	RemoteIO unit.Bandwidth
}

// Validate reports whether the cluster description is usable.
//
// silod:pure
func (c Cluster) Validate() error {
	if c.GPUs <= 0 {
		return fmt.Errorf("core: cluster with %d GPUs", c.GPUs)
	}
	if c.Cache < 0 || c.RemoteIO < 0 {
		return fmt.Errorf("core: negative storage resources (%v cache, %v IO)", c.Cache, c.RemoteIO)
	}
	return nil
}

// JobView is the scheduler's read-only view of one job. RemainingBytes
// is the job's remaining training work expressed in data volume, which
// divided by a throughput (bytes/s) yields remaining duration — the
// quantity SJF-style policies order by.
type JobView struct {
	ID             string
	NumGPUs        int // gang size; all-or-nothing
	Profile        estimator.JobProfile
	DatasetKey     string // cache accounting key; shared across jobs using the same dataset
	DatasetSize    unit.Bytes
	RemainingBytes unit.Bytes
	// AttainedBytes is the data volume the job has trained through so
	// far; deficit-based fairness policies use it to approximate
	// max-min fair service over time.
	AttainedBytes unit.Bytes
	// EffectiveCached is the currently effective cached bytes for the
	// job (§6 "fine-grained management"): newly admitted blocks do not
	// help until the next epoch, so allocators must size remote IO
	// grants to the instantaneous demand f*·(1 - effective/d), not the
	// planned-quota demand, or cold jobs starve during warm-up.
	EffectiveCached unit.Bytes
	// CachedBytes is the dataset's live cached bytes, including blocks
	// admitted this epoch that are not yet effective. Allocators use it
	// for placement stability (warm-data hysteresis): a dataset filling
	// up mid-epoch must not be evicted before it ever pays off.
	CachedBytes unit.Bytes
	// Tenant and SLO identify the job's owner and service tier. The
	// canonical queue order (SortJobsInto) ranks by SLO first, so on
	// capacity loss the re-solve sheds sheddable jobs before standard
	// before critical — reverse-SLO preemption falls out of admission
	// order. The zero SLO (standard) reproduces the flat pool exactly.
	Tenant  string
	SLO     tenant.SLOClass
	Submit  unit.Time
	Running bool
	// Irregular marks jobs whose access pattern breaks the uniform
	// exactly-once assumption (e.g. curriculum learning, §7.4); the
	// framework schedules them in a fallback partition (§6).
	Irregular bool
}

// Assignment is the joint allocation a policy produces for the views it
// was given: which jobs run (gang-granted GPUs), how much cache each
// cache key receives, and how much remote IO each running job receives.
// GPU and remote-IO grants are positional: GPUs[i] and RemoteIO[i]
// belong to jobs[i] of the views Assign received, both hold exactly
// len(jobs) entries, and 0 means no grant. Cache goes to cache keys —
// datasets, or CoorDL's per-job keys — not to jobs, so sharing jobs are
// charged once (§6); an absent key means no quota.
type Assignment struct {
	GPUs       []int
	CacheQuota map[string]unit.Bytes
	RemoteIO   []unit.Bandwidth
}

// NewAssignment returns an empty assignment, sized for no jobs; Reset
// sizes it for a view list.
//
// silod:pure
func NewAssignment() Assignment {
	return Assignment{CacheQuota: make(map[string]unit.Bytes)}
}

// Reset clears the assignment for reuse over n views: n zero GPU and
// remote-IO grants, no quotas. Buffers are allocated on first use and
// grown, never shrunk, after, so policies recycle one Assignment across
// scheduling rounds; the returned value shares the receiver's buffers,
// so a recycled Assignment is valid only until the next Assign call.
//
// silod:pure
func (a *Assignment) Reset(n int) Assignment {
	if a.CacheQuota == nil {
		*a = NewAssignment()
	}
	clear(a.CacheQuota)
	a.GPUs = slices.Grow(a.GPUs[:0], n)[:n]
	a.RemoteIO = slices.Grow(a.RemoteIO[:0], n)[:n]
	clear(a.GPUs)
	clear(a.RemoteIO)
	return *a
}

// Validate checks the assignment against the cluster and job list:
// grants sized to the views, no oversubscription, gang-or-nothing GPU
// grants. Policies are validated in tests and the simulator validates
// at every rescheduling point, so allocation bugs fail loudly.
//
// silod:pure
func (a Assignment) Validate(c Cluster, jobs []JobView) error {
	var scratch ValidateScratch
	return a.ValidateWith(c, jobs, &scratch)
}

// ValidateScratch holds the key buffer Validate's sorted cache walk
// needs, so a caller validating every scheduling round (Round) can
// recycle it instead of allocating a fresh one per solve. The zero value
// is ready to use; contents are overwritten on every ValidateWith call.
type ValidateScratch struct {
	keys []string
}

// ValidateWith is Validate with caller-owned scratch buffers; only the
// allocation behaviour differs. GPU and remote-IO grants are checked in
// view order, so of several bad grants the error names the one at the
// lowest position. The cache total is first checked without sorting
// (capacityClears); only when that cannot prove it within capacity does
// the sorted walk run, which then decides and names the offending key.
//
// silod:pure
func (a Assignment) ValidateWith(c Cluster, jobs []JobView, s *ValidateScratch) error {
	if len(a.GPUs) != len(jobs) || len(a.RemoteIO) != len(jobs) {
		return fmt.Errorf("core: %d GPU and %d remote IO grants for %d jobs", len(a.GPUs), len(a.RemoteIO), len(jobs))
	}
	gpus := 0
	for i, g := range a.GPUs {
		if g != 0 && g != jobs[i].NumGPUs {
			return fmt.Errorf("core: job %s granted %d GPUs, gang needs %d", jobs[i].ID, g, jobs[i].NumGPUs)
		}
		gpus += g
	}
	if gpus > c.GPUs {
		return fmt.Errorf("core: %d GPUs granted, cluster has %d", gpus, c.GPUs)
	}
	if !capacityClears(a.CacheQuota, float64(c.Cache)) {
		if err := validateSorted(a.CacheQuota, c.Cache, &s.keys); err != nil {
			return err
		}
	}
	var io unit.Bandwidth
	for i, bw := range a.RemoteIO {
		if err := checkValue(bw, "remote IO", jobs[i].ID); err != nil {
			return err
		}
		io += bw
	}
	if float64(io) > float64(c.RemoteIO)*(1+1e-9)+1 {
		return fmt.Errorf("core: %v remote IO granted, cluster has %v", io, c.RemoteIO)
	}
	return nil
}

// checkValue rejects a negative or non-finite grant; item names the
// resource and key its holder in the error.
//
// silod:pure
func checkValue[V ~float64](v V, item, key string) error {
	if v < 0 {
		return fmt.Errorf("core: negative %s %v for %q", item, v, key)
	}
	if math.IsNaN(float64(v)) || math.IsInf(float64(v), 1) {
		return fmt.Errorf("core: non-finite %s %v for %q", item, v, key)
	}
	return nil
}

// capacityClears reports, without depending on map order, that every
// value of m is finite and non-negative and the values' float sum in any
// order — the sorted one included — stays within Validate's bound
// capacity·(1+1e-9)+1. False means only "not proven": the caller's
// sorted walk decides.
//
// The proof: each value is split into its whole part and its fraction
// rounded up to a multiple of 2⁻³², and both parts are summed in
// integers, exactly and in no particular order, to a total T ≥ S, the
// exact sum. A float sum of n non-negative terms in any order is at
// most S·(1+γ), γ = (n-1)·2⁻⁵³/(1-(n-1)·2⁻⁵³). The test below inflates
// T by 8n·2⁻⁵³, which covers γ and the five roundings of converting T
// and of the test itself, so a total it accepts cannot exceed the bound
// in any order.
//
// silod:pure
func capacityClears[V ~float64](m map[string]V, capacity float64) bool {
	var whole, frac uint64 // frac in units of 2⁻³²; n ≤ 2³¹ terms cannot overflow it
	for _, v := range m {
		x := float64(v)
		if !(x >= 0) || x >= 0x1p63 {
			return false // negative, NaN, +Inf or too large to count exactly
		}
		w := math.Floor(x)
		if whole > math.MaxUint64-uint64(w) {
			return false
		}
		whole += uint64(w)
		frac += uint64(math.Ceil((x - w) * 0x1p32))
	}
	t := float64(whole) + float64(frac)*0x1p-32
	return t+t*float64(8*len(m))*0x1p-53 < capacity*(1+1e-9)+1
}

// validateSorted checks the cache quotas m in sorted key order: float
// addition is not associative, and Validate's total and the key an
// error names must not vary with per-process map order.
//
// silod:pure
func validateSorted(m map[string]unit.Bytes, capacity unit.Bytes, keys *[]string) error {
	sorted := (*keys)[:0]
	for key := range m {
		sorted = append(sorted, key)
	}
	sort.Strings(sorted)
	*keys = sorted
	var sum unit.Bytes
	for _, key := range sorted {
		v := m[key]
		if err := checkValue(v, "cache quota", key); err != nil {
			return err
		}
		sum += v
	}
	if float64(sum) > float64(capacity)*(1+1e-9)+1 {
		return fmt.Errorf("core: %v cache granted, cluster has %v", sum, capacity)
	}
	return nil
}

// Policy is a cluster scheduling policy. Implementations receive the
// full job list (pending and running) and produce a fresh Assignment
// whose GPU and remote-IO grants are indexed by position in that list:
// a.GPUs[i] and a.RemoteIO[i] are jobs[i]'s, whatever order the policy
// considers the jobs in. SiloD-enhanced policies consult
// estimator.JobProfile (SiloDPerf, Eq. 4) while vanilla policies look
// only at IdealThroughput.
type Policy interface {
	Name() string
	Assign(c Cluster, now unit.Time, jobs []JobView) Assignment
}

// PureAssigner is the optional Policy extension that lets Round skip
// redundant solves. PureAssign reports that Assign is a pure function
// of (cluster, jobs): the same inputs always produce an equivalent
// Assignment, independent of the wall-clock `now` argument, call
// history, and any internal randomness. A Round that sees unchanged
// inputs may then reuse the previous solve's result. Policies whose
// ordering depends on `now` (e.g. deficit-based fairness) or that draw
// random numbers (e.g. Quiver's profiling noise) must report false —
// or simply not implement the interface, which Round treats the same.
type PureAssigner interface {
	PureAssign() bool
}

// ViewFields is a bitmask over JobView fields, used by DeltaAssigner to
// declare which fields a policy's Assign provably never reads.
type ViewFields uint32

// The maskable JobView fields. Identity fields (ID, DatasetKey) are
// deliberately not maskable: a changed identity always invalidates a
// memoized solve.
const (
	FieldNumGPUs ViewFields = 1 << iota
	FieldProfile
	FieldDatasetSize
	FieldRemainingBytes
	FieldAttainedBytes
	FieldEffectiveCached
	FieldCachedBytes
	FieldTenant
	FieldSLO
	FieldSubmit
	FieldRunning
	FieldIrregular
)

// DeltaAssigner is the optional PureAssigner extension behind the
// delta-aware solve skip. IgnoredViewFields returns the JobView fields
// Assign's output provably does not depend on; when the only
// differences between two job lists fall inside that set (and the
// policy is pure), a fresh solve would reproduce the memoized
// assignment byte for byte, so Round reuses it. Declaring a field the
// policy actually reads silently corrupts simulations — declarations
// are cross-checked by the relevance fuzz tests in internal/policy and
// each one must carry a silod:pure-requires marker naming the Assign
// it describes, so the lint machinery fails the build if the purity
// annotation the claim rests on is ever dropped.
type DeltaAssigner interface {
	PureAssigner
	IgnoredViewFields() ViewFields
}

// FullResolver has no implementer and no caller in the product: no
// policy carries state across rounds, so NewRound has nothing to forward
// SetFullResolve to. The type stays only because bench/policy.go
// (frozen) spells it; it goes in the next [benchmark] PR.
type FullResolver interface {
	SetFullResolve(full bool)
}

// ViewsEquivalent reports whether two job lists are equal outside the
// ignored fields: same length, same per-index identity (ID and
// DatasetKey always compare), and every non-ignored field equal. With
// ignore == 0 it is exactly element-wise equality.
//
// silod:pure
func ViewsEquivalent(a, b []JobView, ignore ViewFields) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if ignore == 0 {
			if a[i] != b[i] {
				return false
			}
			continue
		}
		x, y := a[i], b[i]
		if x.ID != y.ID || x.DatasetKey != y.DatasetKey {
			return false
		}
		if ignore&FieldNumGPUs == 0 && x.NumGPUs != y.NumGPUs {
			return false
		}
		if ignore&FieldProfile == 0 && x.Profile != y.Profile {
			return false
		}
		if ignore&FieldDatasetSize == 0 && x.DatasetSize != y.DatasetSize {
			return false
		}
		if ignore&FieldRemainingBytes == 0 && x.RemainingBytes != y.RemainingBytes {
			return false
		}
		if ignore&FieldAttainedBytes == 0 && x.AttainedBytes != y.AttainedBytes {
			return false
		}
		if ignore&FieldEffectiveCached == 0 && x.EffectiveCached != y.EffectiveCached {
			return false
		}
		if ignore&FieldCachedBytes == 0 && x.CachedBytes != y.CachedBytes {
			return false
		}
		if ignore&FieldTenant == 0 && x.Tenant != y.Tenant {
			return false
		}
		if ignore&FieldSLO == 0 && x.SLO != y.SLO {
			return false
		}
		if ignore&FieldSubmit == 0 && x.Submit != y.Submit {
			return false
		}
		if ignore&FieldRunning == 0 && x.Running != y.Running {
			return false
		}
		if ignore&FieldIrregular == 0 && x.Irregular != y.Irregular {
			return false
		}
	}
	return true
}

// PolicyIgnoredFields returns the ignore mask Round may use for p: the
// declared mask when p is a pure DeltaAssigner, zero (exact match)
// otherwise.
func PolicyIgnoredFields(p Policy) ViewFields {
	da, ok := p.(DeltaAssigner)
	if !ok || !da.PureAssign() {
		return 0
	}
	return da.IgnoredViewFields()
}

// Framework is SiloD's top-level scheduler (Algorithm 1). It partitions
// jobs into regular and irregular sets (§6 "Handling irregular data
// access"), splits storage resources proportionally between the
// partitions, runs the configured policy on the regular partition with
// the enhanced estimator, and runs a plain fair fallback on the
// irregular partition: irregular jobs share its storage equally while
// keeping their GPU demand.
type Framework struct {
	// Policy schedules regular jobs (SiloD-enhanced).
	Policy Policy
}

// Schedule implements Algorithm 1 over both partitions. The clock
// parameter is forwarded to the policy untouched; whether the whole
// framework is pure is its call (frameworkPolicy's PureAssign asks
// policyPure).
//
// silod:pure assume=Policy
func (f *Framework) Schedule(c Cluster, now unit.Time, jobs []JobView) (Assignment, error) {
	if err := c.Validate(); err != nil {
		return Assignment{}, err
	}
	if f.Policy == nil {
		return Assignment{}, fmt.Errorf("core: framework with nil policy")
	}
	var regular, irregular []JobView
	var regIdx, irrIdx []int // view positions of the partitions' members
	for i := range jobs {
		if jobs[i].Irregular {
			irregular = append(irregular, jobs[i])
			irrIdx = append(irrIdx, i)
		} else {
			regular = append(regular, jobs[i])
			regIdx = append(regIdx, i)
		}
	}
	if len(irregular) == 0 {
		a := f.Policy.Assign(c, now, jobs)
		if err := a.Validate(c, jobs); err != nil {
			return Assignment{}, fmt.Errorf("policy %s: %w", f.Policy.Name(), err)
		}
		return a, nil
	}

	// Partition storage proportionally to GPU demand so neither class
	// starves; GPUs remain a single pool arbitrated by grant order
	// (regular first, then irregular from the remainder).
	regDemand, irrDemand := gpuDemand(regular), gpuDemand(irregular)
	total := regDemand + irrDemand
	frac := 0.5
	if total > 0 {
		frac = float64(regDemand) / float64(total)
	}
	regCluster := Cluster{
		GPUs:     c.GPUs,
		Cache:    unit.Bytes(float64(c.Cache) * frac),
		RemoteIO: unit.Bandwidth(float64(c.RemoteIO) * frac),
	}
	regAssign := f.Policy.Assign(regCluster, now, regular)
	if err := regAssign.Validate(regCluster, regular); err != nil {
		return Assignment{}, fmt.Errorf("policy %s (regular partition): %w", f.Policy.Name(), err)
	}

	usedGPUs := 0
	for _, g := range regAssign.GPUs {
		usedGPUs += g
	}
	irrCluster := Cluster{
		GPUs:     c.GPUs - usedGPUs,
		Cache:    c.Cache - unit.Bytes(float64(c.Cache)*frac),
		RemoteIO: c.RemoteIO - unit.Bandwidth(float64(c.RemoteIO)*frac),
	}
	irrAssign := equalShareFallback(irrCluster, irregular)
	// Merge at the full view list's positions; the fallback's quotas
	// win on a key both partitions fund.
	a := Assignment{GPUs: make([]int, len(jobs)), CacheQuota: regAssign.CacheQuota, RemoteIO: make([]unit.Bandwidth, len(jobs))}
	for k, i := range regIdx {
		a.GPUs[i], a.RemoteIO[i] = regAssign.GPUs[k], regAssign.RemoteIO[k]
	}
	for k, i := range irrIdx {
		a.GPUs[i], a.RemoteIO[i] = irrAssign.GPUs[k], irrAssign.RemoteIO[k]
	}
	for key, q := range irrAssign.CacheQuota {
		a.CacheQuota[key] = q
	}
	return a, nil
}

// gpuDemand sums gang sizes.
//
// silod:pure
func gpuDemand(jobs []JobView) int {
	var s int
	for _, j := range jobs {
		s += j.NumGPUs
	}
	return s
}

// equalShareFallback grants GPUs in submit order and splits the
// partition's storage equally among admitted jobs, charging shared
// datasets once.
//
// silod:pure
func equalShareFallback(c Cluster, jobs []JobView) Assignment {
	var a Assignment
	a.Reset(len(jobs))
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int {
		return cmp.Or(cmp.Compare(jobs[x].Submit, jobs[y].Submit), strings.Compare(jobs[x].ID, jobs[y].ID))
	})
	free := c.GPUs
	admitted := 0
	for _, i := range order {
		if jobs[i].NumGPUs <= free {
			a.GPUs[i] = jobs[i].NumGPUs
			free -= jobs[i].NumGPUs
			admitted++
		}
	}
	if admitted == 0 {
		return a
	}
	ioShare := unit.Bandwidth(float64(c.RemoteIO) / float64(admitted))
	cacheShare := unit.Bytes(float64(c.Cache) / float64(admitted))
	for _, i := range order {
		if a.GPUs[i] == 0 {
			continue
		}
		j := &jobs[i]
		a.RemoteIO[i] = ioShare
		// Shared datasets accumulate the shares of their users, capped
		// at the dataset size; the cap returns slack implicitly.
		q := a.CacheQuota[j.DatasetKey] + cacheShare
		if q > j.DatasetSize {
			q = j.DatasetSize
		}
		a.CacheQuota[j.DatasetKey] = q
	}
	return a
}

// SortJobsInto orders jobs by SLO rank (critical before standard before
// sheddable), then submit time, then ID — the canonical queue order
// shared by every policy implementation — into a caller-owned
// destination buffer (reused via dst[:0]); the returned slice aliases
// dst's backing array when capacity allows. Ranking first means
// admission under scarcity protects higher tiers, and on GPU loss the
// re-solve drops sheddable jobs first. Single-class job sets (the
// untenanted default) reduce to the original submit-then-ID order.
//
// silod:pure
func SortJobsInto(dst []JobView, jobs []JobView) []JobView {
	out := append(dst[:0], jobs...)
	sort.Slice(out, func(i, j int) bool {
		if ri, rj := out[i].SLO.Rank(), out[j].SLO.Rank(); ri != rj {
			return ri < rj
		}
		if out[i].Submit != out[j].Submit {
			return out[i].Submit < out[j].Submit
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// frameworkPolicy adapts Framework to the Policy interface for engines
// that drive policies directly. Scheduling errors indicate framework
// misconfiguration or a broken inner policy and surface as panics, the
// same contract the simulator applies to invalid assignments.
type frameworkPolicy struct {
	f *Framework
}

// Name implements Policy.
func (p frameworkPolicy) Name() string {
	name := "framework"
	if p.f.Policy != nil {
		name += "+" + p.f.Policy.Name()
	}
	return name
}

// Assign implements Policy.
//
// silod:pure assume=Policy
func (p frameworkPolicy) Assign(c Cluster, now unit.Time, jobs []JobView) Assignment {
	a, err := p.f.Schedule(c, now, jobs)
	if err != nil {
		panic(fmt.Sprintf("core: framework scheduling failed: %v", err))
	}
	return a
}

// PureAssign implements PureAssigner: the framework is pure when its
// policy is (the equal-share fallback is a pure function already).
//
// silod:pure-requires: (*Framework).Schedule, equalShareFallback
func (p frameworkPolicy) PureAssign() bool {
	return policyPure(p.f.Policy)
}

// equalShareIgnored is the ignore mask of equalShareFallback: it reads
// only ID, DatasetKey, NumGPUs, DatasetSize and Submit.
const equalShareIgnored = FieldProfile | FieldRemainingBytes | FieldAttainedBytes |
	FieldEffectiveCached | FieldCachedBytes | FieldTenant | FieldSLO | FieldRunning

// IgnoredViewFields implements DeltaAssigner: a field is ignorable for
// the framework only if both its policy and the equal-share fallback
// ignore it, and never Irregular (the partitioning key) or NumGPUs (the
// proportional storage split reads gang sizes).
//
// silod:pure-requires: (*Framework).Schedule, equalShareFallback
func (p frameworkPolicy) IgnoredViewFields() ViewFields {
	mask := PolicyIgnoredFields(p.f.Policy) & equalShareIgnored
	return mask &^ (FieldIrregular | FieldNumGPUs)
}

// policyPure reports whether p declares itself a pure assigner.
func policyPure(p Policy) bool {
	pa, ok := p.(PureAssigner)
	return ok && pa.PureAssign()
}

// AsPolicy returns the framework as a Policy.
func (f *Framework) AsPolicy() Policy { return frameworkPolicy{f: f} }
