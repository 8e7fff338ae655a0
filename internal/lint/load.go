package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked module package, ready for
// analysis.
type Package struct {
	Path       string // import path
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error
}

// Loader parses and type-checks the packages of one module using only
// the standard library. Module-internal imports are checked from
// source in dependency order; everything else (the standard library)
// goes through go/importer's "source" importer, which also works from
// source and therefore needs no pre-built export data.
//
// Test files (*_test.go) are excluded: the invariants the suite
// enforces protect simulation and production behavior, and tests
// legitimately use wall-clock timeouts and seeded math/rand stress
// input.
type Loader struct {
	Root   string // absolute module root
	Module string // module path from go.mod
	Fset   *token.FileSet

	std      types.ImporterFrom
	pkgs     map[string]*Package
	checking map[string]bool
}

// NewLoader builds a loader for the module rooted at root (the
// directory containing go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := moduleName(abs)
	if err != nil {
		return nil, err
	}
	// The source importer type-checks std from source; cgo packages
	// must take their pure-Go fallback or the importer would try to
	// run cgo.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	return &Loader{
		Root:     abs,
		Module:   mod,
		Fset:     fset,
		std:      std,
		pkgs:     make(map[string]*Package),
		checking: make(map[string]bool),
	}, nil
}

// moduleName extracts the module path from root/go.mod.
func moduleName(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			name := strings.TrimSpace(rest)
			if name != "" {
				return name, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// LoadAll walks the module tree and loads every package containing
// non-test Go files, in sorted import-path order.
func (l *Loader) LoadAll() ([]*Package, error) {
	dirs := map[string]bool{}
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.Root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(dirs))
	for dir := range dirs {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		ip := l.Module
		if rel != "." {
			ip = l.Module + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, ip := range paths {
		p, err := l.load(ip)
		if err != nil {
			return nil, fmt.Errorf("lint: load %s: %w", ip, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// load parses and type-checks one module package by import path,
// loading its module-internal dependencies first.
func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	rel := strings.TrimPrefix(path, l.Module)
	dir := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	pkg, err := l.checkDir(dir, path, true)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// checkDir parses the non-test Go files of dir and type-checks them as
// import path ipath. When preloadDeps is set, module-internal imports
// are loaded (and cached) first.
func (l *Loader) checkDir(dir, ipath string, preloadDeps bool) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	if preloadDeps {
		for _, f := range files {
			for _, imp := range f.Imports {
				dep := strings.Trim(imp.Path.Value, `"`)
				if l.isModulePath(dep) {
					if _, err := l.load(dep); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	pkg := &Package{Path: ipath, Files: files}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: importerFunc(l.importPkg),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(ipath, l.Fset, files, info) // errors collected via conf.Error
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}

// isModulePath reports whether dep is inside the loader's module.
func (l *Loader) isModulePath(dep string) bool {
	return dep == l.Module || strings.HasPrefix(dep, l.Module+"/")
}

// importPkg resolves one import during type checking: module-internal
// paths recurse into the loader, everything else goes to the source
// importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if l.isModulePath(path) {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, l.Root, 0)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
