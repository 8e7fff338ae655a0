package lint

import (
	"go/types"
	"path/filepath"
	"sort"
)

// Result is the outcome of linting one module.
type Result struct {
	// Diagnostics are all findings, sorted by file, line, column,
	// analyzer, message. Positions are slash-separated and relative to the
	// module root, matching lint.allow rules.
	Diagnostics []Diagnostic
	// Packages is the number of packages analyzed.
	Packages int
}

// Run lints the module rooted at root with every analyzer.
// Type-check failures surface as diagnostics of the pseudo-analyzer
// "typecheck": a package the suite cannot type-check is a package the
// suite cannot vouch for.
func Run(root string) (*Result, error) {
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}
	res := &Result{Packages: len(pkgs)}
	// Packages are analyzed in load order over one module-wide Shared
	// map, which the global analyzers' Finish hooks then judge.
	shared := make(map[string]any)
	for _, pkg := range pkgs {
		res.Diagnostics = append(res.Diagnostics, analyzePackage(loader, pkg, shared)...)
	}
	// Global analyzers see the whole module before judging.
	for _, an := range All() {
		if an.Finish == nil {
			continue
		}
		pass := &Pass{Analyzer: an, Fset: loader.Fset, Shared: shared}
		an.Finish(pass)
		res.Diagnostics = append(res.Diagnostics, pass.diags...)
	}
	for i := range res.Diagnostics {
		res.Diagnostics[i].Pos.Filename = relPath(loader.Root, res.Diagnostics[i].Pos.Filename)
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return res, nil
}

func analyzePackage(loader *Loader, pkg *Package, shared map[string]any) []Diagnostic {
	var out []Diagnostic
	for _, terr := range pkg.TypeErrors {
		d := Diagnostic{Analyzer: "typecheck", Message: terr.Error()}
		if te, ok := terr.(types.Error); ok {
			d.Pos = te.Fset.Position(te.Pos)
			d.Message = te.Msg
		}
		out = append(out, d)
	}
	for _, an := range All() {
		pass := &Pass{
			Analyzer: an,
			Path:     pkg.Path,
			Fset:     loader.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Shared:   shared,
		}
		an.Run(pass)
		out = append(out, pass.diags...)
	}
	return out
}

// relPath rewrites an absolute filename to a slash-separated path
// relative to root; filenames outside root pass through unchanged.
func relPath(root, file string) string {
	rel, err := filepath.Rel(root, file)
	if err != nil || rel == file {
		return filepath.ToSlash(file)
	}
	return filepath.ToSlash(rel)
}
