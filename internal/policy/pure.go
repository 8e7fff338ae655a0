package policy

import "repro/internal/core"

// allocatorPure reports whether a storage allocator is a pure function
// of its inputs. The list is deliberately conservative: only allocators
// known to be stateless qualify, so an allocator added later defaults
// to impure until it is vetted. QuiverAllocator draws profiling noise
// from its RNG on every solve and must never be skipped.
//
// Each vetted allocator's AllocateStorage is machine-checked: the
// requires markers below fail the lint if one loses its silod:pure
// annotation (or stops existing).
//
// silod:pure-requires: GreedyAllocator.AllocateStorage, CoorDLAllocator.AllocateStorage, AlluxioAllocator.AllocateStorage
func allocatorPure(s StorageAllocator) bool {
	switch s.(type) {
	case GreedyAllocator, *GreedyAllocator,
		CoorDLAllocator, *CoorDLAllocator,
		AlluxioAllocator, *AlluxioAllocator:
		return true
	}
	return false
}

// PureAssign implements core.PureAssigner: FIFO's admission order
// depends only on the job views, so purity reduces to the allocator's.
//
// silod:pure-requires: (*FIFO).Assign
func (f *FIFO) PureAssign() bool { return allocatorPure(f.Storage) }

// PureAssign implements core.PureAssigner: the SJF score (Eq. 6/7) is a
// function of the cluster and job views alone — `now` never enters.
//
// silod:pure-requires: (*SJF).Assign
func (s *SJF) PureAssign() bool {
	return s.Enhanced || allocatorPure(s.Storage)
}

// PureAssign implements core.PureAssigner. Gavel's max-min and
// finish-time-fairness orderings rank by deficit against elapsed time,
// so their output changes as `now` advances even with identical views —
// they are impure by the PureAssigner contract. Only the
// throughput-maximizing objective orders by a time-free score.
//
// silod:pure-requires: (*Gavel).assignThroughput, throughputKey
func (g *Gavel) PureAssign() bool {
	if g.Objective != TotalThroughput {
		return false
	}
	return g.Enhanced || allocatorPure(g.Storage)
}

// IgnoredViewFields implements core.DeltaAssigner. FIFO's read set is
// admission order (SLO, Submit, ID, Running, NumGPUs) plus the vetted
// allocators' storage inputs (Profile, DatasetKey/Size, SLO weights,
// CachedBytes, EffectiveCached): job progress never enters, so views
// differing only in RemainingBytes/AttainedBytes — which advance every
// integration step — reproduce the memoized assignment exactly. The
// claim is only as good as Assign staying pure, which the requires
// marker ties to the machine-checked annotation; the relevance fuzz
// test (TestIgnoredFieldsIrrelevant) cross-checks the mask itself.
//
// silod:pure-requires: (*FIFO).Assign
func (f *FIFO) IgnoredViewFields() core.ViewFields {
	return core.FieldRemainingBytes | core.FieldAttainedBytes
}

// IgnoredViewFields implements core.DeltaAssigner. The SJF score reads
// RemainingBytes (remaining duration) but never AttainedBytes, and the
// score order — not submit order or current running state — alone
// decides admission.
//
// silod:pure-requires: (*SJF).Assign
func (s *SJF) IgnoredViewFields() core.ViewFields {
	return core.FieldAttainedBytes | core.FieldSubmit | core.FieldRunning
}

// IgnoredViewFields implements core.DeltaAssigner. Only the
// TotalThroughput objective is pure (see PureAssign); its score and
// storage greedy read capacity and cache state but never job progress.
//
// silod:pure-requires: (*Gavel).assignThroughput, throughputKey
func (g *Gavel) IgnoredViewFields() core.ViewFields {
	return core.FieldRemainingBytes | core.FieldAttainedBytes | core.FieldSubmit
}

var (
	_ core.PureAssigner  = (*FIFO)(nil)
	_ core.PureAssigner  = (*SJF)(nil)
	_ core.PureAssigner  = (*Gavel)(nil)
	_ core.DeltaAssigner = (*FIFO)(nil)
	_ core.DeltaAssigner = (*SJF)(nil)
	_ core.DeltaAssigner = (*Gavel)(nil)
)
