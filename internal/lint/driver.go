package lint

import (
	"go/types"
	"path/filepath"
	"sort"

	"repro/internal/runner"
)

// Options configures a suite run.
type Options struct {
	// Disable names analyzers to skip.
	Disable map[string]bool
	// Workers bounds per-package analysis concurrency: 0 means
	// GOMAXPROCS, 1 runs sequentially (the silodsim -parallel
	// convention). Loading and type-checking stay sequential — the
	// loader resolves imports in dependency order and is not
	// thread-safe — but analysis is embarrassingly parallel across
	// packages, and output is byte-identical at any worker count.
	Workers int
}

// Result is the outcome of linting one module.
type Result struct {
	// Diagnostics are all findings, sorted by file, line, column,
	// analyzer. Positions are slash-separated and relative to the
	// module root, matching lint.allow rules.
	Diagnostics []Diagnostic
	// Packages is the number of packages analyzed.
	Packages int
}

// Run lints the module rooted at root with every enabled analyzer.
// Type-check failures surface as diagnostics of the pseudo-analyzer
// "typecheck": a package the suite cannot type-check is a package the
// suite cannot vouch for.
func Run(root string, opts Options) (*Result, error) {
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}
	res := &Result{Packages: len(pkgs)}
	// Analysis is read-only over the type-checked packages, so the
	// packages fan out across the worker pool. Each gets a private
	// Shared map; cross-package state is folded back in package load
	// order below, which keeps global analyzers (lockorder, purecheck)
	// deterministic regardless of worker count.
	type pkgResult struct {
		diags  []Diagnostic
		shared map[string]any
	}
	results, err := runner.Map(runner.Options{Workers: opts.Workers, Sequential: opts.Workers == 1},
		len(pkgs), func(a runner.Arm) (pkgResult, error) {
			shared := make(map[string]any)
			return pkgResult{
				diags:  analyzePackage(loader, pkgs[a.Index], opts, shared),
				shared: shared,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	shared := make(map[string]any)
	for _, r := range results {
		res.Diagnostics = append(res.Diagnostics, r.diags...)
		for _, an := range All() {
			if an.Merge != nil && !opts.Disable[an.Name] {
				an.Merge(shared, r.shared)
			}
		}
	}
	// Global analyzers see the whole module before judging.
	for _, an := range All() {
		if an.Finish == nil || opts.Disable[an.Name] {
			continue
		}
		pass := &Pass{Analyzer: an, Fset: loader.Fset, Shared: shared}
		an.Finish(pass)
		res.Diagnostics = append(res.Diagnostics, pass.diags...)
	}
	for i := range res.Diagnostics {
		res.Diagnostics[i].Pos.Filename = relPath(loader.Root, res.Diagnostics[i].Pos.Filename)
		for t := range res.Diagnostics[i].Trace {
			res.Diagnostics[i].Trace[t].Pos.Filename = relPath(loader.Root, res.Diagnostics[i].Trace[t].Pos.Filename)
		}
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
		return a.Analyzer < b.Analyzer
	})
	return res, nil
}

func analyzePackage(loader *Loader, pkg *Package, opts Options, shared map[string]any) []Diagnostic {
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
		if opts.Disable[an.Name] {
			continue
		}
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
