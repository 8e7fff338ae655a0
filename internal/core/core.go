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
	"fmt"
	"sort"

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
	// canonical queue order (SortJobs) ranks by SLO first, so on
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

// Assignment is the joint allocation a policy produces: which jobs run
// (gang-granted GPUs), how much cache each dataset receives, and how
// much remote IO each running job receives. Cache is allocated to
// datasets, not jobs, so sharing jobs are charged once (§6).
type Assignment struct {
	GPUs       map[string]int
	CacheQuota map[string]unit.Bytes
	RemoteIO   map[string]unit.Bandwidth
}

// NewAssignment returns an empty assignment.
//
// silod:pure
func NewAssignment() Assignment {
	return Assignment{
		GPUs:       make(map[string]int),
		CacheQuota: make(map[string]unit.Bytes),
		RemoteIO:   make(map[string]unit.Bandwidth),
	}
}

// Reset clears the assignment's maps for reuse, allocating them on
// first use. Policies call it to recycle one Assignment's maps across
// scheduling rounds instead of reallocating; the returned value shares
// the receiver's maps, so a recycled Assignment is valid only until the
// policy's next Assign call.
//
// silod:pure
// silod:hotpath
func (a *Assignment) Reset() Assignment {
	if a.GPUs == nil {
		*a = NewAssignment()
		return *a
	}
	clear(a.GPUs)
	clear(a.CacheQuota)
	clear(a.RemoteIO)
	return *a
}

// Merge folds other into a (keys in other win). Used to combine the
// regular and irregular partitions.
//
// silod:pure
func (a Assignment) Merge(other Assignment) Assignment {
	for k, v := range other.GPUs {
		a.GPUs[k] = v
	}
	for k, v := range other.CacheQuota {
		a.CacheQuota[k] = v
	}
	for k, v := range other.RemoteIO {
		a.RemoteIO[k] = v
	}
	return a
}

// Validate checks the assignment against the cluster and job list:
// no oversubscription, no grants to unknown jobs, gang-or-nothing GPU
// grants. Policies are validated in tests and the simulator validates
// at every rescheduling point, so allocation bugs fail loudly.
//
// silod:pure
func (a Assignment) Validate(c Cluster, jobs []JobView) error {
	var scratch ValidateScratch
	return a.ValidateWith(c, jobs, &scratch)
}

// ValidateScratch holds the map and key buffers Validate needs, so a
// caller validating every scheduling round (Round) can recycle them
// instead of allocating fresh ones per solve. The zero value is ready
// to use; contents are overwritten on every ValidateWith call.
type ValidateScratch struct {
	byID map[string]JobView
	keys []string
	ids  []string
}

// ValidateWith is Validate with caller-owned scratch buffers. The
// verdict — including error strings and the sorted-key float
// accumulation order — is byte-identical to Validate's; only the
// allocation behaviour differs.
//
// silod:pure
func (a Assignment) ValidateWith(c Cluster, jobs []JobView, s *ValidateScratch) error {
	if s.byID == nil {
		s.byID = make(map[string]JobView, len(jobs))
	} else {
		clear(s.byID)
	}
	byID := s.byID
	for _, j := range jobs {
		byID[j.ID] = j
	}
	gpus := 0
	for id, g := range a.GPUs {
		j, ok := byID[id]
		if !ok {
			return fmt.Errorf("core: GPU grant to unknown job %q", id)
		}
		if g != 0 && g != j.NumGPUs {
			return fmt.Errorf("core: job %s granted %d GPUs, gang needs %d", id, g, j.NumGPUs)
		}
		gpus += g
	}
	if gpus > c.GPUs {
		return fmt.Errorf("core: %d GPUs granted, cluster has %d", gpus, c.GPUs)
	}
	// Sum in sorted key order: float addition is not associative, and
	// Validate's totals must not vary with per-process map order.
	var cacheSum unit.Bytes
	cacheKeys := s.keys[:0]
	for key := range a.CacheQuota {
		cacheKeys = append(cacheKeys, key)
	}
	sort.Strings(cacheKeys)
	for _, key := range cacheKeys {
		q := a.CacheQuota[key]
		if q < 0 {
			return fmt.Errorf("core: negative cache quota %v for %q", q, key)
		}
		cacheSum += q
	}
	if float64(cacheSum) > float64(c.Cache)*(1+1e-9)+1 {
		return fmt.Errorf("core: %v cache granted, cluster has %v", cacheSum, c.Cache)
	}
	s.keys = cacheKeys
	var ioSum unit.Bandwidth
	ioIDs := s.ids[:0]
	for id := range a.RemoteIO {
		ioIDs = append(ioIDs, id)
	}
	sort.Strings(ioIDs)
	s.ids = ioIDs
	for _, id := range ioIDs {
		bw := a.RemoteIO[id]
		if bw < 0 {
			return fmt.Errorf("core: negative remote IO %v for %q", bw, id)
		}
		if _, ok := byID[id]; !ok {
			return fmt.Errorf("core: remote IO grant to unknown job %q", id)
		}
		ioSum += bw
	}
	if float64(ioSum) > float64(c.RemoteIO)*(1+1e-9)+1 {
		return fmt.Errorf("core: %v remote IO granted, cluster has %v", ioSum, c.RemoteIO)
	}
	return nil
}

// Policy is a cluster scheduling policy. Implementations receive the
// full job list (pending and running) and produce a fresh Assignment;
// SiloD-enhanced policies consult estimator.JobProfile (SiloDPerf,
// Eq. 4) while vanilla policies look only at IdealThroughput.
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
// the enhanced estimator, and runs the fallback policy on the irregular
// partition.
type Framework struct {
	// Policy schedules regular jobs (SiloD-enhanced).
	Policy Policy
	// Fallback schedules irregular jobs with their original estimator;
	// nil means irregular jobs share the irregular partition's storage
	// equally while keeping their GPU demand (a plain fair fallback).
	Fallback Policy
}

// Schedule implements Algorithm 1 over both partitions. The clock
// parameter is forwarded to the partition policies untouched; whether
// the whole framework is pure is their call (frameworkPolicy's
// PureAssign asks policyPure for both).
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
	for _, j := range jobs {
		if j.Irregular {
			irregular = append(irregular, j)
		} else {
			regular = append(regular, j)
		}
	}
	if len(irregular) == 0 {
		a := f.Policy.Assign(c, now, regular)
		if err := a.Validate(c, regular); err != nil {
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
	var irrAssign Assignment
	if f.Fallback != nil && irrCluster.GPUs > 0 {
		irrAssign = f.Fallback.Assign(irrCluster, now, irregular)
		if err := irrAssign.Validate(irrCluster, irregular); err != nil {
			return Assignment{}, fmt.Errorf("fallback %s (irregular partition): %w", f.Fallback.Name(), err)
		}
	} else {
		irrAssign = equalShareFallback(irrCluster, irregular)
	}
	return regAssign.Merge(irrAssign), nil
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
	a := NewAssignment()
	sorted := append([]JobView(nil), jobs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Submit != sorted[j].Submit {
			return sorted[i].Submit < sorted[j].Submit
		}
		return sorted[i].ID < sorted[j].ID
	})
	free := c.GPUs
	var admitted []JobView
	for _, j := range sorted {
		if j.NumGPUs <= free {
			a.GPUs[j.ID] = j.NumGPUs
			free -= j.NumGPUs
			admitted = append(admitted, j)
		}
	}
	if len(admitted) == 0 {
		return a
	}
	ioShare := unit.Bandwidth(float64(c.RemoteIO) / float64(len(admitted)))
	cacheShare := unit.Bytes(float64(c.Cache) / float64(len(admitted)))
	for _, j := range admitted {
		a.RemoteIO[j.ID] = ioShare
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

// SortJobs orders jobs by SLO rank (critical before standard before
// sheddable), then submit time, then ID — the canonical queue order
// shared by every policy implementation. Ranking first means admission
// under scarcity protects higher tiers, and on GPU loss the re-solve
// drops sheddable jobs first. Single-class job sets (the untenanted
// default) reduce to the original submit-then-ID order.
//
// silod:pure
func SortJobs(jobs []JobView) []JobView {
	return SortJobsInto(nil, jobs)
}

// SortJobsInto is SortJobs with a caller-owned destination buffer
// (reused via dst[:0]); the returned slice aliases dst's backing array
// when capacity allows. Order is byte-identical to SortJobs.
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

// PureAssign implements PureAssigner: the framework is pure when every
// policy it may delegate to is pure (the built-in equal-share fallback
// used when Fallback is nil is a pure function already).
//
// silod:pure-requires: (*Framework).Schedule, equalShareFallback
func (p frameworkPolicy) PureAssign() bool {
	if !policyPure(p.f.Policy) {
		return false
	}
	return p.f.Fallback == nil || policyPure(p.f.Fallback)
}

// equalShareIgnored is the ignore mask of equalShareFallback: it reads
// only ID, DatasetKey, NumGPUs, DatasetSize and Submit.
const equalShareIgnored = FieldProfile | FieldRemainingBytes | FieldAttainedBytes |
	FieldEffectiveCached | FieldCachedBytes | FieldTenant | FieldSLO | FieldRunning

// IgnoredViewFields implements DeltaAssigner: a field is ignorable for
// the framework only if every policy it may delegate to ignores it,
// and never Irregular (the partitioning key) or NumGPUs (the
// proportional storage split reads gang sizes).
//
// silod:pure-requires: (*Framework).Schedule, equalShareFallback
func (p frameworkPolicy) IgnoredViewFields() ViewFields {
	mask := PolicyIgnoredFields(p.f.Policy)
	if p.f.Fallback != nil {
		mask &= PolicyIgnoredFields(p.f.Fallback)
	} else {
		mask &= equalShareIgnored
	}
	return mask &^ (FieldIrregular | FieldNumGPUs)
}

// policyPure reports whether p declares itself a pure assigner.
func policyPure(p Policy) bool {
	pa, ok := p.(PureAssigner)
	return ok && pa.PureAssign()
}

// AsPolicy returns the framework as a Policy.
func (f *Framework) AsPolicy() Policy { return frameworkPolicy{f: f} }
