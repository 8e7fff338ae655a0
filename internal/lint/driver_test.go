package lint

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// repoLint lints the repository once per test binary: the run is the
// whole module's load and type-check, and every test that judges the
// tree reads the same result.
var repoLint = sync.OnceValues(func() (*Result, error) {
	return Run(filepath.Join("..", ".."))
})

// TestRepoLintClean is the self-hosting gate: the repository itself
// must produce zero findings beyond the audited lint.allow exceptions,
// and every exception must still be earning its keep.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root := filepath.Join("..", "..")
	allow, err := ParseAllowFile(filepath.Join(root, "lint.allow"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := repoLint()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		if !allow.Allows(d) {
			t.Errorf("unallowlisted finding: %s", d)
		}
	}
	for _, r := range allow.Unused() {
		t.Errorf("stale allow rule (matched nothing): %s: %s %s", r.Source, r.Analyzer, r.Path)
	}
	for _, r := range allow.Unjustified() {
		t.Errorf("allow rule without a justification comment: %s: %s %s", r.Source, r.Analyzer, r.Path)
	}
}

// BenchmarkLintTree times one full-suite run over the repository —
// load, type-check, all nine analyzers including the whole-program
// summary phase — with allocation reporting, so a regression in the
// call-graph engine's memory behavior shows up next to the wall-clock
// number CI's 60-second lint assertion depends on.
func BenchmarkLintTree(b *testing.B) {
	root := filepath.Join("..", "..")
	allow, err := ParseAllowFile(filepath.Join(root, "lint.allow"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(root)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range res.Diagnostics {
			if !allow.Allows(d) {
				b.Fatalf("tree is not clean: %s", d)
			}
		}
	}
}

// TestRetiredFloatcmpRulesGoStale proves the stale-rule detector earns
// its keep: the four floatcmp exceptions that used to cover
// internal/sim record-on-change comparisons were retired by the
// unit.Bytes.Changed / unit.Bandwidth.Changed helpers, so re-adding
// one must surface as a stale (matched-nothing) rule, not silently
// ride along.
func TestRetiredFloatcmpRulesGoStale(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	allow, err := ParseAllow(strings.NewReader(
		"floatcmp internal/sim/batch.go float equality\n"+
			"floatcmp internal/sim/fluid.go float equality\n"), "retired.allow")
	if err != nil {
		t.Fatal(err)
	}
	res, err := repoLint()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		allow.Allows(d)
	}
	stale := allow.Unused()
	if len(stale) != 2 {
		t.Fatalf("got %d stale rules, want 2 (the retired floatcmp exceptions): %v", len(stale), stale)
	}
	for _, r := range stale {
		if r.Analyzer != "floatcmp" {
			t.Errorf("unexpected stale rule: %s %s", r.Analyzer, r.Path)
		}
	}
}
