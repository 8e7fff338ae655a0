package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader caches one loader across the package's tests: warming
// the source importer (which type-checks the standard library from
// source) is the slow part, and the module packages it loads are
// reused by every fixture.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loaderVal, loaderErr = NewLoader(filepath.Join("..", ".."))
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loaderVal
}

// loadDir type-checks a single fixture directory outside the module
// tree under an assumed import path. The result is not cached, so
// fixture paths may shadow real ones.
func loadDir(l *Loader, dir, asPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.checkDir(abs, asPath, false)
}

// want is one golden expectation parsed from a fixture comment of the
// form "// want" followed by a backquoted regexp, placed on the line
// the diagnostic must appear on.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile("// want `([^`]+)`")

// collectWants extracts the golden expectations from fixture comments.
func collectWants(t *testing.T, l *Loader, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := l.Fset.Position(c.Pos())
				wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

// runFixture loads a testdata/src fixture dir under an assumed import
// path and runs one analyzer over it.
func runFixture(t *testing.T, an *Analyzer, dir, asPath string) ([]Diagnostic, *Package) {
	t.Helper()
	l := testLoader(t)
	pkg, err := loadDir(l, filepath.Join("testdata", "src", dir), asPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture %s has type errors: %v", dir, pkg.TypeErrors)
	}
	pass := &Pass{
		Analyzer: an,
		Path:     asPath,
		Fset:     l.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Shared:   make(map[string]any),
	}
	an.Run(pass)
	if an.Finish != nil {
		fin := &Pass{Analyzer: an, Fset: l.Fset, Shared: pass.Shared}
		an.Finish(fin)
		pass.diags = append(pass.diags, fin.diags...)
	}
	return pass.diags, pkg
}

// checkWants matches diagnostics against golden expectations
// one-to-one by (file, line, regexp).
func checkWants(t *testing.T, diags []Diagnostic, wants []*want) {
	t.Helper()
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] || d.Pos.Filename != w.file || d.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestAnalyzerFixtures runs every analyzer over its fixture package
// (as a restricted path where applicability matters) and checks the
// `// want` golden expectations: each fixture demonstrates at least
// one caught violation and one accepted idiom.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		dir      string
		asPath   string
	}{
		{Wallclock, "wallclock", "fixture/internal/sim"},
		{UnitSafety, "unitsafety", "fixture/internal/policy"},
		{FloatCmp, "floatcmp", "fixture/internal/estimator"},
		{Lockcheck, "lockcheck", "fixture/internal/datamgr"},
		{Errflow, "errflow", "fixture/internal/metrics"},
		{MapOrder, "maporder", "fixture/internal/sim"},
		{PureCheck, "purecheck", "fixture/internal/policy"},
		{InputFlow, "inputflow", "fixture/internal/controlplane"},
		{Exhaust, "exhaust", "fixture/internal/policy"},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			diags, pkg := runFixture(t, tc.analyzer, tc.dir, tc.asPath)
			wants := collectWants(t, testLoader(t), pkg)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no // want expectations", tc.dir)
			}
			checkWants(t, diags, wants)
		})
	}
}

// TestAnalyzerScoping pins the applicability rules: path-scoped
// analyzers go quiet outside their packages.
func TestAnalyzerScoping(t *testing.T) {
	cases := []struct {
		name     string
		analyzer *Analyzer
		dir      string
		asPath   string
	}{
		{"wallclock-outside-virtual-time", Wallclock, "wallclock", "fixture/internal/workload"},
		{"floatcmp-outside-numerics", FloatCmp, "floatcmp", "fixture/internal/workload"},
		{"unitsafety-inside-unit", UnitSafety, "unitsafety", "fixture/internal/unit"},
		{"errflow-panic-outside-daemon", Errflow, "errflow_panic", "fixture/internal/sim"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if diags, _ := runFixture(t, tc.analyzer, tc.dir, tc.asPath); len(diags) != 0 {
				t.Errorf("want no diagnostics for %s as %s, got:\n%s",
					tc.dir, tc.asPath, formatDiags(diags))
			}
		})
	}
}

// TestErrflowPanicInsideDaemon: the panic fixture that is accepted
// under fixture/internal/sim is a finding on a daemon-reachable path.
func TestErrflowPanicInsideDaemon(t *testing.T) {
	diags, _ := runFixture(t, Errflow, "errflow_panic", "fixture/internal/cache")
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "panic in daemon-reachable package") {
		t.Errorf("want exactly the panic finding, got:\n%s", formatDiags(diags))
	}
}

func formatDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}
