package experiments

import "testing"

// TestParallelArtifactsByteIdentical is the acceptance gate for the
// worker-pool port: fanning experiment arms across 4 workers must
// render byte-identical artifacts to the sequential reference order,
// for the same seed. Workers is forced to 4 (not GOMAXPROCS) so the
// parallel path is exercised even on single-core CI runners.
//
// Figure10Fidelity covers both simulation engines (fluid and batch) in
// one fan-out; Figure12 covers the widest arm matrix (3 schedulers x 4
// cache systems). Together they sweep every runner invariant: derived
// arm seeds, pre-indexed result slots, and index-order collection.
func TestParallelArtifactsByteIdentical(t *testing.T) {
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
			seq, err := run(Options{Seed: 42, Quick: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := run(Options{Seed: 42, Quick: true, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if seq != par {
				t.Errorf("parallel artifact differs from sequential reference:\n--- sequential ---\n%s\n--- 4 workers ---\n%s", seq, par)
			}
			if seq == "" {
				t.Error("empty artifact")
			}
		})
	}
}
