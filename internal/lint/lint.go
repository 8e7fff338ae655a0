// Package lint is SiloD's project-specific static-analysis suite. It
// enforces the invariants the compiler cannot, one analyzer per
// invariant that has caught a defect in this tree: virtual-time
// packages never read the wall clock (wallclock), throughput math does
// not mix physical units (unitsafety), simulator math never relies on
// exact float equality (floatcmp), annotated shared state is only
// touched under its mutex (lockcheck), errors are never silently
// discarded nor daemon paths allowed to panic (errflow), map iteration
// order never reaches an order-sensitive sink (maporder), // silod:pure
// claims hold (purecheck), untrusted request fields reach no size
// unvalidated (inputflow), and switches over closed enums stay
// exhaustive (exhaust).
//
// The suite is self-contained: packages are parsed with go/parser and
// type-checked with go/types, resolving module-internal imports from
// source in dependency order and standard-library imports through
// go/importer's "source" importer. There is no dependency on
// golang.org/x/tools.
//
// Analyzers decide applicability by import-path *suffix* (for example
// "internal/sim" matches both "repro/internal/sim" and a fixture
// module's "badmod/internal/sim"), so the same rules run unchanged
// over testdata fixture modules.
//
// See docs/static-analysis.md for the rationale of each rule and the
// lint.allow escape hatch.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Diagnostic is one finding: which analyzer fired, where, and why.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the canonical file:line:col format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named rule. Run inspects a type-checked package and
// reports findings through the pass. Global analyzers additionally set
// Finish, which the driver calls once after every package has been
// analyzed; per-package Run invocations communicate with Finish
// through Pass.Shared.
type Analyzer struct {
	Name   string
	Doc    string
	Run    func(*Pass)
	Finish func(*Pass) // optional whole-module pass; Files/Pkg/Info are nil
}

// Pass hands one type-checked package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Path     string // import path of the package under analysis
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Shared is per-driver-run cross-package state, keyed by analyzer.
	// The same map is handed to every Run and Finish invocation of one
	// lint run, letting global analyzers (inputflow) accumulate a
	// module-wide view.
	Shared map[string]any

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in reporting order. This slice is
// the single registry: -list, the README analyzer count, and the docs'
// ledger rows are all asserted against it, so adding an analyzer here
// is the whole registration step.
func All() []*Analyzer {
	return []*Analyzer{
		Wallclock, UnitSafety, FloatCmp, Lockcheck, Errflow,
		MapOrder, PureCheck, InputFlow, Exhaust,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// pathEndsIn reports whether import path p ends with the given
// slash-separated suffix on a path-segment boundary.
func pathEndsIn(p, suffix string) bool {
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}

// pathEndsInAny reports whether p ends with any of the suffixes.
func pathEndsInAny(p string, suffixes []string) bool {
	for _, s := range suffixes {
		if pathEndsIn(p, s) {
			return true
		}
	}
	return false
}

// unitType reports whether t is a named type defined in an
// internal/unit package (the repo's physical-quantity types), and if
// so returns its name (Bytes, Bandwidth, Time, Duration).
func unitType(t types.Type) (string, bool) {
	n, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if !pathEndsIn(obj.Pkg().Path(), "internal/unit") {
		return "", false
	}
	return obj.Name(), true
}

// pkgNameOf resolves an identifier to the package it names, if it is a
// package qualifier (e.g. the "time" in time.Now).
func pkgNameOf(info *types.Info, id *ast.Ident) (string, bool) {
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}
