package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hollow"
)

func runHollow(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	return sb.String(), err
}

// TestSameSeedDigestIdentical is the CLI end of the hollow identity
// gate: two same-seed runs must record the same push digest and job
// accounting (latencies are host noise and excluded).
func TestSameSeedDigestIdentical(t *testing.T) {
	dir := t.TempDir()
	var results [2]hollow.Result
	for i := range results {
		out := filepath.Join(dir, "run"+string(rune('a'+i))+".json")
		if _, err := runHollow(t, "-nodes", "64", "-jobs", "2000", "-rounds", "20",
			"-datasets", "32", "-seed", "9", "-out", out); err != nil {
			t.Fatal(err)
		}
		buf, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(buf, &results[i]); err != nil {
			t.Fatal(err)
		}
	}
	a, b := results[0], results[1]
	if a.Digest != b.Digest || a.Jobs != b.Jobs || a.Completed != b.Completed {
		t.Fatalf("same-seed runs differ: %+v vs %+v", a, b)
	}
	if a.Digest == "" {
		t.Fatal("empty push digest")
	}
}

// TestBadFlags rejects unparsable shapes.
func TestBadFlags(t *testing.T) {
	if _, err := runHollow(t, "-scheduler", "nope"); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := runHollow(t, "-cache", "banana"); err == nil {
		t.Fatal("unparsable cache size accepted")
	}
	if _, err := runHollow(t, "-rounds", "0"); err == nil {
		t.Fatal("zero rounds accepted")
	}
}
