package policy

import (
	"fmt"

	"repro/internal/core"
)

// CacheSystem identifies one of the four storage solutions the paper
// compares (§7, "Baselines").
// silod:enum
type CacheSystem int

// The compared cache systems.
const (
	SiloD CacheSystem = iota
	Alluxio
	CoorDL
	Quiver
)

// String implements fmt.Stringer.
func (cs CacheSystem) String() string {
	switch cs {
	case SiloD:
		return "SiloD"
	case Alluxio:
		return "Alluxio"
	case CoorDL:
		return "CoorDL"
	case Quiver:
		return "Quiver"
	default:
		return fmt.Sprintf("CacheSystem(%d)", int(cs))
	}
}

// ParseCacheSystem converts a name back into a CacheSystem.
func ParseCacheSystem(s string) (CacheSystem, error) {
	for _, cs := range AllCacheSystems() {
		if cs.String() == s {
			return cs, nil
		}
	}
	return 0, fmt.Errorf("policy: unknown cache system %q", s)
}

// AllCacheSystems lists the systems in the paper's comparison order.
func AllCacheSystems() []CacheSystem {
	return []CacheSystem{SiloD, Alluxio, CoorDL, Quiver}
}

// UsesLRU reports whether the system's cache layer runs autonomous LRU
// replacement (Alluxio) rather than scheduler-driven quotas.
func (cs CacheSystem) UsesLRU() bool { return cs == Alluxio }

// PrivateCaches reports whether cache accounting is per-job rather than
// per-dataset (CoorDL's per-VM caches never share).
func (cs CacheSystem) PrivateCaches() bool { return cs == CoorDL }

// Allocator returns the storage allocator for the system. The seed
// drives Quiver's profiling noise.
func (cs CacheSystem) Allocator(seed int64) StorageAllocator {
	switch cs {
	case SiloD:
		return &GreedyAllocator{}
	case Alluxio:
		return AlluxioAllocator{}
	case CoorDL:
		return CoorDLAllocator{}
	case Quiver:
		// The noise models the online-profiling instability the paper
		// observed ("Quiver sometimes wrongly evicts effective data ...
		// due to the unstable caching priority due to profiling",
		// §7.1.2): with warm-data hysteresis, a 0.05 sigma produces
		// occasional wrong evictions rather than constant re-placement.
		return NewQuiverAllocator(0.05, seed)
	default:
		return AlluxioAllocator{}
	}
}

// SchedulerKind identifies the scheduling policies evaluated in §7.
// silod:enum
type SchedulerKind int

// The evaluated scheduling policies.
const (
	FIFOKind SchedulerKind = iota
	SJFKind
	GavelKind
)

// String implements fmt.Stringer.
func (k SchedulerKind) String() string {
	switch k {
	case FIFOKind:
		return "FIFO"
	case SJFKind:
		return "SJF"
	case GavelKind:
		return "Gavel"
	default:
		return fmt.Sprintf("SchedulerKind(%d)", int(k))
	}
}

// ParseSchedulerKind converts a name back into a SchedulerKind.
func ParseSchedulerKind(s string) (SchedulerKind, error) {
	for _, k := range AllSchedulerKinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("policy: unknown scheduler %q", s)
}

// AllSchedulerKinds lists the policies in the paper's order.
func AllSchedulerKinds() []SchedulerKind {
	return []SchedulerKind{FIFOKind, SJFKind, GavelKind}
}

// Build composes a scheduler with a cache system, producing the policy
// the simulator drives. With the SiloD cache system, SJF and Gavel use
// their enhanced (jointly allocating) forms and FIFO uses Algorithm 2;
// with baseline systems the vanilla policies run on the baseline's
// allocator.
func Build(k SchedulerKind, cs CacheSystem, seed int64) (core.Policy, error) {
	alloc := cs.Allocator(seed)
	switch k {
	case FIFOKind:
		return &FIFO{Storage: alloc}, nil
	case SJFKind:
		return &SJF{Enhanced: cs == SiloD, Storage: alloc}, nil
	case GavelKind:
		return &Gavel{Enhanced: cs == SiloD, Storage: alloc}, nil
	default:
		return nil, fmt.Errorf("policy: unknown scheduler kind %d", int(k))
	}
}
