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

// makeRun matches the one form a CI step may take: a Makefile target,
// optionally under a timeout.
var makeRun = regexp.MustCompile(`^(?:timeout \d+ )?make ([\w-]+)$`)

// makeTargets returns the Makefile's rules: each target's recipe lines,
// tab stripped.
func makeTargets(t *testing.T) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	rules := map[string][]string{}
	target := ""
	for _, line := range strings.Split(string(raw), "\n") {
		if recipe, ok := strings.CutPrefix(line, "\t"); ok && target != "" {
			rules[target] = append(rules[target], recipe)
			continue
		}
		target = ""
		if m := makeRule.FindStringSubmatch(line); m != nil {
			target = m[1]
			rules[target] = nil
		}
	}
	return rules
}

// makeRule matches a rule's first line and captures its target.
var makeRule = regexp.MustCompile(`^([\w-]+):`)

// TestCIRunsMakeTargets requires every CI step to be `make <target>`
// for a target the Makefile defines, so the list of gates lives in the
// Makefile alone.
func TestCIRunsMakeTargets(t *testing.T) {
	raw, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	rules := makeTargets(t)
	for n, line := range strings.Split(string(raw), "\n") {
		m := runValue.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		mk := makeRun.FindStringSubmatch(m[1])
		if mk == nil {
			t.Errorf("%s:%d: run value is not `make <target>`: %s", ciWorkflow, n+1, m[1])
			continue
		}
		if _, ok := rules[mk[1]]; !ok {
			t.Errorf("%s:%d: the Makefile has no target %q", ciWorkflow, n+1, mk[1])
		}
	}
}

// fuzzDecl matches a fuzz target's declaration and captures its name.
var fuzzDecl = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)

// fuzzLine matches one line of the Makefile's fuzz recipe: an anchored
// 30 s run of one target in one package.
var fuzzLine = regexp.MustCompile(`^\$\(GO\) test -run '\^\$\$' -fuzz '\^(Fuzz\w*)\$\$' -fuzztime 30s -parallel 2 \./(\S+)$`)

// TestEveryFuzzerRunsInCI requires CI to run `make fuzz`, and the fuzz
// recipe to give every fuzz target in the tree its own 30 s line in the
// target's package, so a fuzzer cannot be added without its run. A
// recipe line naming no fuzz target fails too.
func TestEveryFuzzerRunsInCI(t *testing.T) {
	raw, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^\s*-\s+run:\s*make fuzz$`).Match(raw) {
		t.Errorf("%s has no `make fuzz` step", ciWorkflow)
	}
	recipe, ok := makeTargets(t)["fuzz"]
	if !ok {
		t.Fatal("the Makefile has no fuzz target")
	}
	reached := map[string]bool{} // "dir FuzzName"
	for _, line := range recipe {
		m := fuzzLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("make fuzz line is not an anchored 30 s run of one target: %s", line)
			continue
		}
		reached[m[2]+" "+m[1]] = true
	}
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
			key := filepath.ToSlash(filepath.Dir(path)) + " " + m[1]
			if !reached[key] {
				t.Errorf("%s: make fuzz does not run %s in ./%s", path, m[1], filepath.ToSlash(filepath.Dir(path)))
			}
			delete(reached, key)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no fuzz targets found")
	}
	for key := range reached {
		t.Errorf("make fuzz runs %s, which no _test.go declares", key)
	}
}
