// Command bench is the repository's benchmark: five workloads over the
// simulator, the control-plane round and the serving path, every number
// taken from outside the program under test. See README.md.
//
//	go run ./bench -workload sim-maxmin -seed 42 -seconds 15 -trace 0
//	go run ./bench -workload all -seed 7 -out bench/out/a.jsonl
//	go run ./bench -compare bench/out/a.jsonl bench/out/b.jsonl
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"
)

//go:embed golden.json
var goldenJSON []byte

// goldenSeed is the seed whose simulated numbers golden.json pins.
const goldenSeed = 42

// metricOut is one metric in a full result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Bound float64 `json:"bound,omitempty"`
}

// result is one run's full record: what -out appends and -compare reads.
type result struct {
	Workload    string                `json:"workload"`
	Trace       int                   `json:"trace"`
	Seed        int64                 `json:"seed"`
	Seconds     float64               `json:"seconds"`
	Host        hostInfo              `json:"host"`
	Correct     bool                  `json:"correct"`
	Failures    []string              `json:"failures,omitempty"`
	Attempted   int                   `json:"attempted"`
	Failed      int                   `json:"failed"`
	Metrics     map[string]metricOut  `json:"metrics"`
	Simulated   map[string]armOutcome `json:"simulated,omitempty"`
	Fingerprint string                `json:"fingerprint,omitempty"`
}

// options is one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	trace   int
	outDir  string        // span files land here
	golden  bool          // check sim-* at goldenSeed against golden.json
	probe   time.Duration // least length of one probe repetition
	host    hostInfo
}

// execute runs one workload once and assembles its result. The plain
// run reports the end-to-end metrics. The traced run halves the budget
// between an untraced phase and a traced replay of the same number of
// operations, so that tracing overhead and output equality are measured
// on like work.
func execute(def workloadDef, o options, stderr io.Writer) (*result, error) {
	res := &result{Workload: def.name, Trace: o.trace, Seed: o.seed, Seconds: o.seconds, Host: o.host}
	var ph *phase
	var got samples
	defs := endToEnd
	if o.trace == 0 {
		var err error
		if ph, err = def.run(o.seed, limit{seconds: o.seconds}, nil); err != nil {
			return nil, err
		}
		got = endToEndOf(ph)
	} else {
		each := o.seconds / 2
		if def.openLoop {
			each = o.seconds
		}
		plain, err := def.run(o.seed, limit{seconds: each}, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		if ph, err = def.run(o.seed, limit{seconds: each, ops: len(plain.ops)}, tr); err != nil {
			return nil, err
		}
		ph.failures = append(ph.failures, plain.failures...)
		spans := tr.snapshot()
		if err := checkSpans(spans); err != nil {
			ph.fail("%s trace: %v", def.name, err)
		}
		if ph.fingerprint != plain.fingerprint {
			ph.fail("%s: traced outputs %q differ from untraced %q", def.name, ph.fingerprint, plain.fingerprint)
		}
		if err := writeSpans(o.outDir, def.name, spans); err != nil {
			return nil, err
		}
		defs = perLayer
		got = perLayerOf(ph, plain, spans)
		got.set("repo.nontest_go_loc", float64(o.host.NontestGoLOC), 1)
		if over := got["bench.trace_overhead_frac"].Value; over >= 0.10 {
			fmt.Fprintf(stderr, "bench: %s: tracing cost %.0f%% of the median op; do not trust this run's layer split\n", def.name, over*100)
		}
		if err := runProbes(def.name, ph, o.seed, prober{rep: o.probe, out: got}); err != nil {
			return nil, err
		}
	}
	if o.golden && o.seed == goldenSeed && ph.simulated != nil {
		checkGolden(def.name, ph)
	}

	res.Attempted, res.Failed = ph.attempted, ph.failed
	res.Failures = ph.failures
	res.Correct = len(ph.failures) == 0
	res.Simulated, res.Fingerprint = ph.simulated, ph.fingerprint
	res.Metrics = make(map[string]metricOut, len(defs))
	for _, d := range defs {
		s := got[d.Name]
		res.Metrics[d.Name] = metricOut{Value: s.Value, Unit: d.Unit, N: s.N, Bound: d.Bound}
	}
	return res, nil
}

// runProbes adds the replay-probe metrics the workload's layers call for.
func runProbes(name string, ph *phase, seed int64, p prober) error {
	switch name {
	case "sim-maxmin":
		p.maxMin(ph.probe)
		fallthrough
	case "sim-greedy":
		p.eventq()
		fallthrough
	case "cp-churn", "cp-steady":
		return p.core(ph.probe, seed)
	case "serve-http":
		return p.ledger(ph.peakActive)
	}
	return nil
}

// checkGolden compares the seed-42 simulated numbers with golden.json,
// bit for bit.
func checkGolden(name string, ph *phase) {
	var golden map[string]map[string]armOutcome
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		ph.fail("golden.json: %v", err)
		return
	}
	for _, arm := range simArmNames {
		got, ran := ph.simulated[arm]
		if !ran {
			continue
		}
		if want, ok := golden[name][arm]; !ok || want.bits() != got.bits() {
			ph.fail("%s arm %s: simulated %s, golden.json has %s", name, arm, got.bits(), want.bits())
		}
	}
}

// emit prints a result: a table for people, the full record, and last
// the driver's line with exactly correct, attempted, failed, metrics.
func emit(w io.Writer, res *result) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "# %s seed=%d trace=%d\nmetric\tvalue\tunit\tn\tbound\n", res.Workload, res.Seed, res.Trace)
	defs := endToEnd
	if res.Trace != 0 {
		defs = perLayer
	}
	short := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		m := res.Metrics[d.Name]
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", d.Bound*100)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t%s\n", d.Name, m.Value, m.Unit, m.N, bound)
		short[d.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	fmt.Fprintf(tw, "operations\t%d attempted\t%d failed\n", res.Attempted, res.Failed)
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", f)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(res); err != nil {
		return err
	}
	return enc.Encode(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": short,
	})
}

// appendResult appends res as one JSON line to path.
func appendResult(path string, res *result) (rerr error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && rerr == nil {
			rerr = cerr
		}
	}()
	return json.NewEncoder(f).Encode(res)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "sim-maxmin | sim-greedy | cp-churn | cp-steady | serve-http | all (each one untraced, then traced)")
	seed := fs.Int64("seed", goldenSeed, "workload seed: the same seed gives the same trace or request stream")
	seconds := fs.Float64("seconds", 15, "length of the measured phase; a slower host lengthens this, never shrinks a workload")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	outDir := fs.String("outdir", "bench/out", "directory for span files (trace-<workload>.json)")
	out := fs.String("out", "", "append each full result to this JSON-lines file, the input of -compare")
	compare := fs.Bool("compare", false, "compare two JSON-lines result sets: -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}

	var todo []workloadDef
	for _, def := range workloads {
		if def.name == *name || *name == "all" {
			todo = append(todo, def)
		}
	}
	if len(todo) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: need -workload (one of the five, or all), -seconds > 0, -trace 0|1\n")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace, outDir: *outDir, golden: true,
		probe: 200 * time.Millisecond, host: readHost(".")}
	traces := []int{o.trace}
	if *name == "all" {
		traces = []int{0, 1}
	}
	code := 0
	for _, def := range todo {
		for _, o.trace = range traces {
			res, err := execute(def, o, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", def.name, err)
				return 1
			}
			if err := emit(stdout, res); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			if *out != "" {
				if err := appendResult(*out, res); err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
			}
			if !res.Correct {
				code = 1
			}
		}
	}
	return code
}
