package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFullResolveFlagByteIdentical is the CLI end of the incremental
// scheduling guarantee: -full-resolve (from-scratch solve every round)
// must print byte-identical experiment output to the default
// incremental fast path. fidelity96 runs both simulation engines, so
// the solve memo, the rate memo and the Che early exit are all on the
// line here.
func TestFullResolveFlagByteIdentical(t *testing.T) {
	full := capture(t, "-exp", "fidelity96", "-quick", "-seed", "7", "-parallel", "1", "-full-resolve")
	incr := capture(t, "-exp", "fidelity96", "-quick", "-seed", "7", "-parallel", "1")
	if full != incr {
		t.Errorf("-full-resolve output differs from incremental default:\n--- full resolve ---\n%s\n--- incremental ---\n%s", full, incr)
	}
	if full == "" {
		t.Error("empty experiment output")
	}
}

// TestFullResolveMetricsDumpByteIdentical extends the gate to trace
// mode: the -metrics JSON snapshot (per-job stats plus every timeline
// sample) must be byte-identical with and without -full-resolve, on
// both engines.
func TestFullResolveMetricsDumpByteIdentical(t *testing.T) {
	dir := t.TempDir()
	trace := writeTestTrace(t, dir)
	for _, engine := range []string{"fluid", "batch"} {
		t.Run(engine, func(t *testing.T) {
			var dumps [][]byte
			for _, extra := range [][]string{{"-full-resolve"}, nil} {
				out := filepath.Join(dir, engine+"-fr"+string(rune('a'+len(dumps)))+".json")
				args := append([]string{"-trace", trace, "-engine", engine, "-seed", "1234",
					"-scheduler", "SJF", "-system", "SiloD",
					"-gpus", "16", "-cache", "4TB", "-remote", "400MB", "-metrics", out}, extra...)
				capture(t, args...)
				data, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				dumps = append(dumps, data)
			}
			if !bytes.Equal(dumps[0], dumps[1]) {
				t.Errorf("-full-resolve metrics dump differs from incremental (%d vs %d bytes)",
					len(dumps[0]), len(dumps[1]))
			}
			if len(dumps[0]) == 0 {
				t.Error("metrics dump is empty")
			}
		})
	}
}
