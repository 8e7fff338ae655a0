package lint

import (
	"strings"
	"testing"
)

// TestDetcloseTrace pins the -why payload: the RootWall finding carries
// the full call path from the root declaration to the time.Now witness,
// with every hop positioned in the fixture file.
func TestDetcloseTrace(t *testing.T) {
	diags, _ := runFixture(t, DetClose, "detclose", "fixture/internal/sim")
	var found *Diagnostic
	for i := range diags {
		if strings.Contains(diags[i].Message, "RootWall") {
			found = &diags[i]
			break
		}
	}
	if found == nil {
		t.Fatalf("no RootWall finding in:\n%s", formatDiags(diags))
	}
	if len(found.Trace) != 3 {
		t.Fatalf("trace length = %d, want 3 (root, call hop, witness):\n%+v", len(found.Trace), found.Trace)
	}
	for i, want := range []string{
		"root fixture/internal/sim.RootWall",
		"calls fixture/internal/sim.elapsed",
		"time.Now",
	} {
		if found.Trace[i].Call != want {
			t.Errorf("trace[%d].Call = %q, want %q", i, found.Trace[i].Call, want)
		}
		if found.Trace[i].Pos.Line <= 0 || !strings.HasSuffix(found.Trace[i].Pos.Filename, "detclose.go") {
			t.Errorf("trace[%d] position not anchored in the fixture: %+v", i, found.Trace[i].Pos)
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
