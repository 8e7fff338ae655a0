package lint

import (
	"go/token"
	"strconv"
	"strings"
	"testing"
)

func diagAt(analyzer, file string, line int, msg string) Diagnostic {
	return Diagnostic{
		Analyzer: analyzer,
		Pos:      token.Position{Filename: file, Line: line, Column: 1},
		Message:  msg,
	}
}

func TestParseAllow(t *testing.T) {
	src := `
# audited exceptions
floatcmp internal/sim/batch.go float equality
* internal/legacy/...
wallclock cmd/*/main.go:42
`
	al, err := ParseAllow(strings.NewReader(src), "lint.allow")
	if err != nil {
		t.Fatal(err)
	}
	if len(al.Rules) != 3 {
		t.Fatalf("want 3 rules, got %d: %+v", len(al.Rules), al.Rules)
	}
	r := al.Rules[2]
	if r.Analyzer != "wallclock" || r.Path != "cmd/*/main.go" || r.Line != 42 {
		t.Errorf("line-pinned rule parsed wrong: %+v", r)
	}
}

func TestParseAllowErrors(t *testing.T) {
	cases := []string{
		"floatcmp",                       // missing path
		"nosuch internal/sim/batch.go",   // unknown analyzer
		"floatcmp internal/sim/a.go:0",   // bad line
		"floatcmp internal/sim/a.go:x9",  // non-numeric line
		"floatcmp internal/sim/a.go:5:7", // a second :<n> would stay in the path
	}
	for _, src := range cases {
		if _, err := ParseAllow(strings.NewReader(src), "lint.allow"); err == nil {
			t.Errorf("ParseAllow(%q): want error, got nil", src)
		}
	}
}

func TestAllowsMatching(t *testing.T) {
	src := `
floatcmp internal/sim/batch.go float equality
* internal/legacy/...
wallclock cmd/*/main.go:42
`
	al, err := ParseAllow(strings.NewReader(src), "lint.allow")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		d    Diagnostic
		want bool
	}{
		{diagAt("floatcmp", "internal/sim/batch.go", 7, "float equality (!= on unit.Bytes)"), true},
		{diagAt("floatcmp", "internal/sim/batch.go", 7, "some other message"), false}, // substring mismatch
		{diagAt("wallclock", "internal/sim/batch.go", 7, "float equality"), false},    // analyzer mismatch
		{diagAt("maporder", "internal/legacy/old.go", 3, "anything"), true},           // wildcard subtree
		{diagAt("maporder", "internal/legacyish/old.go", 3, "anything"), false},       // subtree is segment-exact
		{diagAt("wallclock", "cmd/silodd/main.go", 42, "time.Now"), true},             // glob + pinned line
		{diagAt("wallclock", "cmd/silodd/main.go", 43, "time.Now"), false},            // wrong line
	}
	for _, tc := range cases {
		if got := al.Allows(tc.d); got != tc.want {
			t.Errorf("Allows(%s) = %v, want %v", tc.d, got, tc.want)
		}
	}
}

func TestAllowUnused(t *testing.T) {
	al, err := ParseAllow(strings.NewReader("floatcmp internal/sim/batch.go\nwallclock internal/sim/never.go\n"), "lint.allow")
	if err != nil {
		t.Fatal(err)
	}
	al.Allows(diagAt("floatcmp", "internal/sim/batch.go", 7, "x"))
	unused := al.Unused()
	if len(unused) != 1 || unused[0].Path != "internal/sim/never.go" {
		t.Errorf("Unused() = %+v, want just the never-matched rule", unused)
	}
}

func TestParseAllowJustified(t *testing.T) {
	src := `
# this comment covers the whole block below
floatcmp internal/sim/batch.go
* internal/legacy/...

wallclock cmd/silodd/main.go
# comment after a blank line starts a new block
floatcmp internal/sim/other.go
`
	al, err := ParseAllow(strings.NewReader(src), "lint.allow")
	if err != nil {
		t.Fatal(err)
	}
	wantJustified := []bool{true, true, false, true}
	if len(al.Rules) != len(wantJustified) {
		t.Fatalf("want %d rules, got %+v", len(wantJustified), al.Rules)
	}
	for i, want := range wantJustified {
		if al.Rules[i].Justified != want {
			t.Errorf("rule %d (%s): Justified = %v, want %v", i, al.Rules[i].Path, al.Rules[i].Justified, want)
		}
	}
	bad := al.Unjustified()
	if len(bad) != 1 || bad[0].Path != "cmd/silodd/main.go" {
		t.Errorf("Unjustified() = %+v, want just the uncommented rule", bad)
	}
}

func TestParseAllowFileMissing(t *testing.T) {
	al, err := ParseAllowFile("testdata/does-not-exist.allow")
	if err != nil {
		t.Fatalf("missing allow file should not error: %v", err)
	}
	if len(al.Rules) != 0 {
		t.Errorf("missing allow file should yield no rules, got %+v", al.Rules)
	}
}

// FuzzParseAllow checks the lint.allow parser against arbitrary input.
// The committed corpus (testdata/fuzz/FuzzParseAllow: the repository's
// own lint.allow plus malformed shapes) runs as an ordinary test; run
// `go test -fuzz FuzzParseAllow ./internal/lint` to search further.
func FuzzParseAllow(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		al, err := ParseAllow(strings.NewReader(src), "fuzz.allow")
		if err != nil {
			return
		}
		for _, r := range al.Rules {
			if r.Analyzer != "*" && ByName(r.Analyzer) == nil {
				t.Errorf("accepted unknown analyzer %q", r.Analyzer)
			}
			if r.Line < 0 {
				t.Errorf("accepted negative line %d", r.Line)
			}
			if i := strings.LastIndex(r.Path, ":"); i >= 0 {
				if _, err := strconv.Atoi(r.Path[i+1:]); err == nil {
					t.Errorf("path %q keeps a :<n> suffix", r.Path)
				}
			}
			al.Allows(diagAt(r.Analyzer, r.Path, r.Line, r.Substr))
		}
		al.Allows(diagAt("floatcmp", "internal/sim/batch.go", 1, "float equality"))
		al.Unused()
		al.Unjustified()
	})
}
