package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciWorkflow is the CI workflow the checks below read.
const ciWorkflow = ".github/workflows/ci.yml"

// runValue matches a step's `run:` line and captures its value.
var runValue = regexp.MustCompile(`^\s*(?:-\s+)?run:\s*(.*)$`)

// TestCIRunValuesParse rejects a `run:` value that YAML would not read
// as the command it spells: a plain (unquoted) scalar containing ": "
// is a mapping error, and one containing " #" is cut at the comment.
// Quoted and block scalars may hold either.
func TestCIRunValuesParse(t *testing.T) {
	raw, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	for n, line := range strings.Split(string(raw), "\n") {
		m := runValue.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		runs++
		v := m[1]
		if v == "" || strings.ContainsAny(v[:1], `'"|>`) {
			continue
		}
		if strings.Contains(v, ": ") || strings.Contains(v, " #") {
			t.Errorf("%s:%d: unquoted run value contains \": \" or \" #\"; quote it or use a block scalar: %s", ciWorkflow, n+1, v)
		}
	}
	if runs == 0 {
		t.Fatalf("%s: no run steps found", ciWorkflow)
	}
}

// fuzzDecl matches a fuzz target's declaration and captures its name.
var fuzzDecl = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)

// TestEveryFuzzerRunsInCI requires a `-fuzz '^Name$'` step in the CI
// workflow for every fuzz target in the tree, so a fuzzer cannot be
// added without its step.
func TestEveryFuzzerRunsInCI(t *testing.T) {
	raw, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	ci := string(raw)
	found := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzDecl.FindAllStringSubmatch(string(src), -1) {
			found++
			if !strings.Contains(ci, "-fuzz '^"+m[1]+"$'") {
				t.Errorf("%s: %s has no -fuzz '^%s$' step in %s", path, m[1], m[1], ciWorkflow)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no fuzz targets found")
	}
}
