package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

const badmod = "testdata/badmod"

// runLint invokes the CLI entry point and captures both streams.
func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestBadModuleFindings lints the known-bad fixture module and pins
// the exit code and the diagnostic line format.
func TestBadModuleFindings(t *testing.T) {
	code, stdout, stderr := runLint(t, "-root", badmod)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for _, re := range []string{
		`(?m)^internal/sim/sim\.go:\d+:\d+: wallclock: .*time\.Now`,
		`(?m)^internal/sim/sim\.go:\d+:\d+: rngpurity: .*math/rand`,
		`(?m)^internal/cache/cache\.go:\d+:\d+: lockcheck: read of c\.n without holding c\.mu`,
		`(?m)^internal/cache/cache\.go:\d+:\d+: lockorder: lock order cycle: .*opposite order`,
		`(?m)^internal/cache/cache\.go:\d+:\d+: goleak: goroutine has no shutdown path`,
		`(?m)^internal/cache/cache\.go:\d+:\d+: errflow: error value assigned to _`,
		`(?m)^internal/faults/faults\.go:\d+:\d+: wallclock: .*time\.Now`,
		`(?m)^internal/faults/faults\.go:\d+:\d+: goleak: goroutine has no shutdown path`,
		`(?m)^internal/faults/faults\.go:\d+:\d+: errflow: error value assigned to _`,
		`(?m)^internal/runner/runner\.go:\d+:\d+: goleak: goroutine has no shutdown path`,
		`(?m)^internal/runner/runner\.go:\d+:\d+: lockcheck: read of p\.results without holding p\.mu`,
		`(?m)^internal/tenant/tenant\.go:\d+:\d+: lockcheck: write to r\.tenants without holding r\.mu`,
		`(?m)^internal/tenant/tenant\.go:\d+:\d+: errflow: error value assigned to _`,
		`(?m)^internal/policy/policy\.go:\d+:\d+: maporder: float accumulation into total in map iteration order`,
		`(?m)^internal/policy/policy\.go:\d+:\d+: purecheck: silod:pure function Score calls time\.Now`,
		`(?m)^internal/policy/policy\.go:\d+:\d+: hotalloc: silod:hotpath function Hot allocates: make`,
		`(?m)^internal/policy/policy\.go:\d+:\d+: purecheck: silod:pure-requires: solveDelta is not annotated`,
		`(?m)^internal/experiments/experiments\.go:\d+:\d+: detclose: simulation root Figure99 transitively reaches a wall-clock read \(time\.Now\)`,
		`(?m)^internal/controlplane/controlplane\.go:\d+:\d+: inputflow: untrusted Req\.Blocks flows into allocation size`,
		`(?m)^internal/tenant/slo\.go:\d+:\d+: exhaust: switch over closed enum tenant\.sloClass misses sloSheddable`,
		`(?m)^internal/admission/admission\.go:\d+:\d+: exhaust: switch over closed enum admission\.queueState misses stateFull`,
		`(?m)^internal/admission/admission\.go:\d+:\d+: inputflow: untrusted loadSpec\.Burst flows into allocation size`,
		`(?m)^internal/admission/admission\.go:\d+:\d+: detclose: simulation root ReplayStorm transitively reaches a wall-clock read \(time\.Now\)`,
	} {
		if !regexp.MustCompile(re).MatchString(stdout) {
			t.Errorf("stdout missing diagnostic matching %s\nstdout:\n%s", re, stdout)
		}
	}
	if !strings.Contains(stderr, "24 finding(s)") {
		t.Errorf("stderr missing finding count, got:\n%s", stderr)
	}
}

// TestAllowlistSilences covers the escape hatch: an allow rule for the
// bad file turns the run clean, and a rule that matches nothing is
// reported stale.
func TestAllowlistSilences(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "lint.allow")
	content := "# test exceptions\n" +
		"* internal/sim/sim.go\n" +
		"* internal/admission/admission.go\n" +
		"* internal/cache/cache.go\n" +
		"* internal/faults/faults.go\n" +
		"* internal/runner/runner.go\n" +
		"* internal/tenant/tenant.go\n" +
		"* internal/tenant/slo.go\n" +
		"* internal/policy/policy.go\n" +
		"* internal/experiments/experiments.go\n" +
		"* internal/controlplane/controlplane.go\n" +
		"floatcmp internal/sim/never.go\n"
	if err := os.WriteFile(allow, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runLint(t, "-root", badmod, "-allow", allow)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("allowlisted run should print nothing to stdout, got:\n%s", stdout)
	}
	if !strings.Contains(stderr, "stale allow rule") || !strings.Contains(stderr, "internal/sim/never.go") {
		t.Errorf("stderr missing stale-rule report, got:\n%s", stderr)
	}
}

// TestAllowInteractionNewAnalyzers covers the allowlist against the
// whole-program analyzers: a justified detclose rule retires the
// seeded root finding, a rule left over after a fix is reported stale,
// and both behaviors are byte-identical at any worker count (the
// summary phase must not perturb the allow/stale bookkeeping).
func TestAllowInteractionNewAnalyzers(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "lint.allow")
	content := "# Figure99 is the seeded determinism leak; kept on purpose\n" +
		"detclose internal/experiments/experiments.go\n" +
		"# ReplayStorm is the serving-mode twin of the same leak\n" +
		"detclose internal/admission/admission.go\n" +
		"# retired: slo.go gained full switch coverage (rule should be stale)\n" +
		"inputflow internal/tenant/slo.go\n"
	if err := os.WriteFile(allow, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var prevOut, prevErr string
	for i, w := range []string{"1", "4"} {
		code, stdout, stderr := runLint(t, "-root", badmod, "-allow", allow, "-workers", w)
		if code != 1 {
			t.Fatalf("workers=%s: exit code = %d, want 1 (other findings stay)\nstderr:\n%s", w, code, stderr)
		}
		if strings.Contains(stdout, "detclose") {
			t.Errorf("workers=%s: allowed detclose finding still printed:\n%s", w, stdout)
		}
		if !strings.Contains(stdout, "inputflow: untrusted Req.Blocks") {
			t.Errorf("workers=%s: the unallowed inputflow finding must still print:\n%s", w, stdout)
		}
		if !strings.Contains(stderr, "stale allow rule") || !strings.Contains(stderr, "inputflow internal/tenant/slo.go") {
			t.Errorf("workers=%s: stale-rule report missing:\n%s", w, stderr)
		}
		if i > 0 && (stdout != prevOut || stderr != prevErr) {
			t.Errorf("allow bookkeeping diverges across -workers:\n--- prev\n%s%s\n--- now\n%s%s", prevOut, prevErr, stdout, stderr)
		}
		prevOut, prevErr = stdout, stderr
	}
}

// TestDisableFlag turns off every triggered analyzer and expects a
// clean exit.
func TestDisableFlag(t *testing.T) {
	code, stdout, stderr := runLint(t, "-root", badmod,
		"-disable", "wallclock,rngpurity,lockcheck,lockorder,goleak,errflow,maporder,purecheck,hotalloc,detclose,inputflow,exhaust")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if code, _, stderr = runLint(t, "-root", badmod, "-disable", "nosuch"); code != 2 {
		t.Fatalf("unknown analyzer: exit code = %d, want 2\nstderr:\n%s", code, stderr)
	} else if !strings.Contains(stderr, `unknown analyzer "nosuch"`) {
		t.Errorf("stderr missing unknown-analyzer message, got:\n%s", stderr)
	}
}

// TestListFlag prints the analyzer roster without loading anything.
// The expectations come from the registry itself, so a new analyzer is
// covered the moment it lands in lint.All().
func TestListFlag(t *testing.T) {
	code, stdout, _ := runLint(t, "-list")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	all := lint.All()
	if len(all) != 15 {
		t.Errorf("registry has %d analyzers, want 15 (update this test and README.md together)", len(all))
	}
	for _, an := range all {
		if !strings.Contains(stdout, an.Name) {
			t.Errorf("-list output missing %s:\n%s", an.Name, stdout)
		}
	}
}

// TestReadmeAnalyzerCount keeps README.md's prose in lock step with
// the registry: the spelled-out analyzer count must match lint.All().
func TestReadmeAnalyzerCount(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	words := map[int]string{
		12: "twelve", 13: "thirteen", 14: "fourteen", 15: "fifteen",
		16: "sixteen", 17: "seventeen", 18: "eighteen", 19: "nineteen", 20: "twenty",
	}
	n := len(lint.All())
	want, ok := words[n]
	if !ok {
		t.Fatalf("registry has %d analyzers; extend the number-word table", n)
	}
	if !strings.Contains(string(data), want+" analyzers") {
		t.Errorf("README.md does not say %q analyzers; the registry has %d — update the prose", want, n)
	}
}

// TestJSONOutput pins the -json wire shape: one object per line with
// path/line/col/analyzer/message, the same findings as the text mode.
func TestJSONOutput(t *testing.T) {
	code, stdout, stderr := runLint(t, "-root", badmod, "-json")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 24 {
		t.Fatalf("got %d JSON lines, want 24:\n%s", len(lines), stdout)
	}
	byAnalyzer := map[string]jsonDiagnostic{}
	for _, line := range lines {
		var d jsonDiagnostic
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if d.Path == "" || d.Line <= 0 || d.Col <= 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
		byAnalyzer[d.Analyzer] = d
	}
	for _, want := range []string{"wallclock", "rngpurity", "lockcheck", "lockorder", "goleak", "errflow", "maporder", "purecheck", "hotalloc", "detclose", "inputflow", "exhaust"} {
		if _, ok := byAnalyzer[want]; !ok {
			t.Errorf("no %s finding in JSON output:\n%s", want, stdout)
		}
	}
	if d := byAnalyzer["goleak"]; d.Path != "internal/runner/runner.go" {
		t.Errorf("goleak path = %q, want internal/runner/runner.go", d.Path)
	}
	if strings.Contains(stdout, ": goleak: ") {
		t.Errorf("-json output contains text-format diagnostics:\n%s", stdout)
	}
}

// TestWhyFlag pins the -why payload: the detclose finding prints its
// full call path — root, intermediate hops, and the clock witness —
// each hop anchored to a file:line in the fixture.
func TestWhyFlag(t *testing.T) {
	code, stdout, _ := runLint(t, "-root", badmod, "-why")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	for _, want := range []string{
		"\troot badmod/internal/experiments.Figure99 (internal/experiments/experiments.go:",
		"\tcalls badmod/internal/experiments.measure (internal/experiments/experiments.go:",
		"\tcalls badmod/internal/experiments.stamp (internal/experiments/experiments.go:",
		"\ttime.Now (internal/experiments/experiments.go:",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-why output missing hop %q:\n%s", want, stdout)
		}
	}
	// Without -why the trace stays out of the stream.
	_, plain, _ := runLint(t, "-root", badmod)
	if strings.Contains(plain, "\troot ") {
		t.Errorf("trace printed without -why:\n%s", plain)
	}
}

// TestBadRoot exits 2 when the root is not a module.
func TestBadRoot(t *testing.T) {
	code, _, stderr := runLint(t, "-root", t.TempDir())
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr:\n%s", code, stderr)
	}
}

// TestUnjustifiedAllowRule: a rule with no #-comment directly above
// its block fails the run even when every finding is covered.
func TestUnjustifiedAllowRule(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "lint.allow")
	content := "# the module is known-bad end to end\n" +
		"* internal/...\n" +
		"\n" +
		"errflow internal/tenant/tenant.go\n"
	if err := os.WriteFile(allow, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runLint(t, "-root", badmod, "-allow", allow)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("covered findings should not print, got:\n%s", stdout)
	}
	if !strings.Contains(stderr, "allow rule without a justification comment") ||
		!strings.Contains(stderr, "errflow internal/tenant/tenant.go") {
		t.Errorf("stderr missing unjustified-rule report, got:\n%s", stderr)
	}
	if n := strings.Count(stderr, "without a justification comment"); n != 1 {
		t.Errorf("want exactly the blank-line-separated rule reported, got %d:\n%s", n, stderr)
	}
}

// TestWorkersDeterministic pins the parallel driver's contract: the
// findings stream is byte-identical at any worker count.
func TestWorkersDeterministic(t *testing.T) {
	code1, out1, _ := runLint(t, "-root", badmod, "-workers", "1")
	code4, out4, _ := runLint(t, "-root", badmod, "-workers", "4")
	if code1 != 1 || code4 != 1 {
		t.Fatalf("exit codes = %d, %d, want 1, 1", code1, code4)
	}
	if out1 != out4 {
		t.Errorf("-workers=1 and -workers=4 diverge:\n--- workers=1\n%s--- workers=4\n%s", out1, out4)
	}
	if code, _, stderr := runLint(t, "-root", badmod, "-workers", "-1"); code != 2 {
		t.Fatalf("negative workers: exit code = %d, want 2\nstderr:\n%s", code, stderr)
	}
}
