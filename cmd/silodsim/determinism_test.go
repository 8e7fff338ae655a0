package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestDeterministicMetricsDump is the regression gate behind the
// wallclock and maporder lint rules: two runs of the same trace with the
// same seed must produce byte-identical -metrics artifacts, for both
// engines. Any wall-clock read, ambient RNG, or map-iteration leak in
// the simulation path shows up here as a diff.
func TestDeterministicMetricsDump(t *testing.T) {
	dir := t.TempDir()
	trace := writeTestTrace(t, dir)
	for _, engine := range []string{"fluid", "batch"} {
		t.Run(engine, func(t *testing.T) {
			var dumps [][]byte
			for i := 0; i < 2; i++ {
				out := filepath.Join(dir, engine+"-run"+string(rune('a'+i))+".json")
				capture(t, "-trace", trace, "-engine", engine, "-seed", "1234",
					"-scheduler", "SJF", "-system", "SiloD",
					"-gpus", "16", "-cache", "4TB", "-remote", "400MB", "-metrics", out)
				data, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				dumps = append(dumps, data)
			}
			if !bytes.Equal(dumps[0], dumps[1]) {
				t.Errorf("same seed produced different metrics dumps (%d vs %d bytes); simulation is not deterministic",
					len(dumps[0]), len(dumps[1]))
			}
			if len(dumps[0]) == 0 {
				t.Error("metrics dump is empty")
			}
		})
	}
}

// TestParallelFlagByteIdentical checks the CLI end of the worker-pool
// guarantee: -parallel=4 must print byte-identical experiment output to
// the -parallel=1 sequential reference. fidelity96 fans its arms over
// both simulation engines, so a scheduling-order leak in either engine
// or in the pool's result collection shows up here.
func TestParallelFlagByteIdentical(t *testing.T) {
	seq := capture(t, "-exp", "fidelity96", "-quick", "-seed", "7", "-parallel", "1")
	par := capture(t, "-exp", "fidelity96", "-quick", "-seed", "7", "-parallel", "4")
	if seq != par {
		t.Errorf("-parallel=4 output differs from -parallel=1:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	if seq == "" {
		t.Error("empty experiment output")
	}
}

// TestDeterministicChaosDump extends the determinism gate to fault
// injection: replaying the same fault schedule with the same seed must
// also be byte-identical, for both engines. A wall-clock or ambient-RNG
// leak anywhere in the fault path (injector, preemption, rollback,
// cache invalidation) shows up here.
func TestDeterministicChaosDump(t *testing.T) {
	dir := t.TempDir()
	trace := writeTestTrace(t, dir)
	schedule := filepath.Join(dir, "faults.json")
	blob := []byte(`{
  "events": [
    {"at_seconds": 7200, "kind": "gpu_loss", "gpus": 4},
    {"at_seconds": 10800, "kind": "cache_loss", "cache_bytes": 1099511627776},
    {"at_seconds": 14400, "kind": "io_loss", "io_bytes_per_sec": 100000000},
    {"at_seconds": 36000, "kind": "gpu_restore", "gpus": 4},
    {"at_seconds": 36000, "kind": "cache_restore", "cache_bytes": 1099511627776},
    {"at_seconds": 36000, "kind": "io_restore", "io_bytes_per_sec": 100000000}
  ]
}
`)
	if err := os.WriteFile(schedule, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"fluid", "batch"} {
		t.Run(engine, func(t *testing.T) {
			var dumps [][]byte
			for i := 0; i < 2; i++ {
				out := filepath.Join(dir, engine+"-chaos"+string(rune('a'+i))+".json")
				capture(t, "-trace", trace, "-engine", engine, "-seed", "1234",
					"-scheduler", "SJF", "-system", "SiloD", "-faults", schedule,
					"-gpus", "16", "-cache", "4TB", "-remote", "400MB", "-metrics", out)
				data, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				dumps = append(dumps, data)
			}
			if !bytes.Equal(dumps[0], dumps[1]) {
				t.Errorf("same seed+schedule produced different metrics dumps (%d vs %d bytes); chaos replay is not deterministic",
					len(dumps[0]), len(dumps[1]))
			}
		})
	}
}
