package experiments

import "testing"

// TestIncrementalArtifactsByteIdentical is the experiments-layer gate
// for the incremental-scheduling fast paths: running the same figure
// with Options.FullResolve (every round re-solved from scratch) must
// render byte-identical artifacts to the default incremental run.
// Figure10Fidelity sweeps both simulation engines; Figure12 sweeps the
// full 3-scheduler x 4-cache-system arm matrix, so together they drive
// the delta memo, the warm-started bisections and the rate memo through
// every production code path.
func TestIncrementalArtifactsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster-scale experiment")
	}
	render := map[string]func(o Options) (string, error){
		"Figure10Fidelity": func(o Options) (string, error) {
			r, err := Figure10Fidelity(o)
			if err != nil {
				return "", err
			}
			return r.Table().String(), nil
		},
		"Figure12": func(o Options) (string, error) {
			r, err := Figure12(o)
			if err != nil {
				return "", err
			}
			return r.JCTTable().String() + r.MakespanTable().String() + r.FairnessTable().String(), nil
		},
	}
	for name, run := range render {
		t.Run(name, func(t *testing.T) {
			full, err := run(Options{Seed: 42, Quick: true, Workers: 1, FullResolve: true})
			if err != nil {
				t.Fatal(err)
			}
			incr, err := run(Options{Seed: 42, Quick: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if full != incr {
				t.Errorf("incremental artifact differs from full-resolve reference:\n--- full resolve ---\n%s\n--- incremental ---\n%s", full, incr)
			}
			if full == "" {
				t.Error("empty artifact")
			}
		})
	}
}
