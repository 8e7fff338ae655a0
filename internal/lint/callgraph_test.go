package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDetcloseTrace pins the -why payload: a finding carries the full
// call path from the root declaration to the effect's witness, with
// every hop positioned in the fixture file. RootSum's witness is the
// map-order float sum itself, so its last hop is the accumulation line.
func TestDetcloseTrace(t *testing.T) {
	diags, _ := runFixture(t, DetClose, "detclose", "fixture/internal/sim")
	src, err := os.ReadFile(filepath.Join("testdata", "src", "detclose", "detclose.go"))
	if err != nil {
		t.Fatal(err)
	}
	sumLine := 1 + strings.Count(string(src[:strings.Index(string(src), "total += r")]), "\n")
	for _, tc := range []struct {
		root        string
		hops        []string
		witnessLine int // 0: any line in the fixture
	}{
		{"RootWall", []string{"root fixture/internal/sim.RootWall", "calls fixture/internal/sim.elapsed", "time.Now"}, 0},
		{"RootSum", []string{"root fixture/internal/sim.RootSum", "calls fixture/internal/sim.requiredIO", "float accumulation into total"}, sumLine},
	} {
		var found *Diagnostic
		for i := range diags {
			if strings.Contains(diags[i].Message, "root "+tc.root+" ") {
				found = &diags[i]
				break
			}
		}
		if found == nil {
			t.Fatalf("no %s finding in:\n%s", tc.root, formatDiags(diags))
		}
		if len(found.Trace) != len(tc.hops) {
			t.Fatalf("%s: trace length = %d, want %d (root, call hop, witness):\n%+v", tc.root, len(found.Trace), len(tc.hops), found.Trace)
		}
		for i, want := range tc.hops {
			if found.Trace[i].Call != want {
				t.Errorf("%s: trace[%d].Call = %q, want %q", tc.root, i, found.Trace[i].Call, want)
			}
			if found.Trace[i].Pos.Line <= 0 || !strings.HasSuffix(found.Trace[i].Pos.Filename, "detclose.go") {
				t.Errorf("%s: trace[%d] position not anchored in the fixture: %+v", tc.root, i, found.Trace[i].Pos)
			}
		}
		if w := found.Trace[len(found.Trace)-1].Pos.Line; tc.witnessLine != 0 && w != tc.witnessLine {
			t.Errorf("%s: witness at line %d, want the accumulation at line %d", tc.root, w, tc.witnessLine)
		}
	}
}

// TestDetcloseRecursiveTrace: the SCC case still produces a terminating
// path — the BFS must not loop inside the recA/recB cycle.
func TestDetcloseRecursiveTrace(t *testing.T) {
	diags, _ := runFixture(t, DetClose, "detclose", "fixture/internal/sim")
	for i := range diags {
		if !strings.Contains(diags[i].Message, "RootRec") {
			continue
		}
		tr := diags[i].Trace
		if len(tr) == 0 {
			t.Fatal("RootRec finding has no trace")
		}
		if got := tr[len(tr)-1].Call; got != "math/rand.Intn" {
			t.Errorf("terminal hop = %q, want math/rand.Intn", got)
		}
		seen := map[string]bool{}
		for _, h := range tr {
			if seen[h.Call] {
				t.Errorf("trace revisits %q: BFS failed to terminate the cycle", h.Call)
			}
			seen[h.Call] = true
		}
		return
	}
	t.Fatalf("no RootRec finding in:\n%s", formatDiags(diags))
}
