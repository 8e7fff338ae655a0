package lint

import (
	"go/token"
	"slices"
	"sort"
	"strings"
)

// Lockorder builds a global lock-acquisition graph and rejects cycles.
// Locks are identified at the type level ("pkg.Type.field"), so the
// graph says "some Manager.mu is held while some TokenBucket.mu is
// acquired". The call-graph fragment records, per function, every
// acquisition and every call made with locks held (lockwalk.go computes
// the held set, path-sensitively); Finish closes acquisitions bottom-up
// over the call graph's SCCs — interface calls fan out to every module
// implementation, recursion converges to the same set for every member
// of a cycle — and reports every edge that participates in a cycle. A
// self-edge (acquiring a lock type while an instance of it is already
// held, possibly through a call chain) counts as a cycle: with a single
// instance it deadlocks, and with two instances the order between them
// is unconstrained.
//
// Approximations, on the safe-for-this-repo side: calls through plain
// function values are not resolved, and two instances of the same
// type-level lock are not distinguished.
var Lockorder = &Analyzer{
	Name:   "lockorder",
	Doc:    "the cross-package lock-acquisition graph must be acyclic",
	Run:    runCallGraph,
	Finish: finishLockorder,
}

type loEdge struct {
	from, to string
}

func finishLockorder(p *Pass) {
	st, ok := p.Shared[callgraphKey].(*cgState)
	if !ok {
		return
	}
	st.finalize()
	acquired := st.lockClosure()

	// Collect edges held → acquired, keeping the first position seen
	// (node order, then walk order within each function). A call site
	// matches its call-graph edges by position.
	edgePos := make(map[loEdge]token.Pos)
	var edges []loEdge
	addEdge := func(from, to string, pos token.Pos) {
		e := loEdge{from, to}
		if _, seen := edgePos[e]; !seen {
			edgePos[e] = pos
			edges = append(edges, e)
		}
	}
	for _, n := range st.nodes {
		for _, s := range n.info.locks {
			if s.lock != "" {
				for _, h := range s.held {
					addEdge(h, s.lock, s.pos)
				}
				continue
			}
			for _, e := range n.edges {
				if e.pos != s.pos || e.ref {
					continue
				}
				for to := range acquired[e.to.id] {
					for _, h := range s.held {
						addEdge(h, to, s.pos)
					}
				}
			}
		}
	}

	// The cycle check is Tarjan over the lock graph, nodes in name order.
	var names []string
	for _, e := range edges {
		names = append(names, e.from, e.to)
	}
	sort.Strings(names)
	names = slices.Compact(names)
	id := make(map[string]int, len(names))
	for i, n := range names {
		id[n] = i
	}
	succ := make([][]int, len(names))
	for _, e := range edges {
		succ[id[e.from]] = append(succ[id[e.from]], id[e.to])
	}
	sccs := tarjan(succ)
	comp := make([]int, len(names))
	for c, members := range sccs {
		for _, v := range members {
			comp[v] = c
		}
	}
	for _, e := range edges {
		if e.from == e.to {
			p.Reportf(edgePos[e], "lock order cycle: %s acquired while an instance of %s is already held (re-entry through this path deadlocks)",
				shortNode(e.to), shortNode(e.from))
			continue
		}
		c := comp[id[e.from]]
		if c != comp[id[e.to]] {
			continue
		}
		var members []string
		for _, v := range sccs[c] {
			members = append(members, shortNode(names[v]))
		}
		sort.Strings(members)
		p.Reportf(edgePos[e], "lock order cycle: %s acquired while %s is held, but another path acquires them in the opposite order (cycle: %s)",
			shortNode(e.to), shortNode(e.from), strings.Join(members, " ↔ "))
	}
}

// lockClosure returns, per node, the lock types the function acquires
// directly or through calls (address-taken references are not calls).
// SCCs are closed callees first; within one, the sets are iterated to a
// fixpoint, so every member of a recursive cycle ends with everything
// the cycle reaches.
func (st *cgState) lockClosure() []map[string]bool {
	acquired := make([]map[string]bool, len(st.nodes))
	add := func(n *cgNode, lock string) bool {
		if acquired[n.id][lock] {
			return false
		}
		if acquired[n.id] == nil {
			acquired[n.id] = make(map[string]bool)
		}
		acquired[n.id][lock] = true
		return true
	}
	for _, scc := range st.sccs {
		for _, n := range scc {
			for _, s := range n.info.locks {
				if s.lock != "" {
					add(n, s.lock)
				}
			}
		}
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				for _, e := range n.edges {
					if e.ref {
						continue
					}
					for lock := range acquired[e.to.id] {
						if add(n, lock) {
							changed = true
						}
					}
				}
			}
		}
	}
	return acquired
}

// shortNode trims the module path prefix off a lock node for readable
// diagnostics: "repro/internal/datamgr.Manager.mu" → "datamgr.Manager.mu".
func shortNode(n string) string {
	if i := strings.LastIndex(n, "/"); i >= 0 {
		return n[i+1:]
	}
	return n
}
