package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"repro/internal/stats"
)

// exactMetrics are simulated results: the same seed must give the same
// bits on both sides, whatever the host did.
var exactMetrics = []string{"sim.avg_jct_min", "sim.makespan_min", "sim.events"}

func readResults(path string) (_ []result, rerr error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && rerr == nil {
			rerr = cerr
		}
	}()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives — the acceptance rule's own
// arithmetic. Fewer than two values have no spread.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(q(3)-q(1), stats.Median(s))
}

// side is one input file's runs of one workload.
type side struct {
	values            map[string][]float64         // end-to-end metric -> one value per untraced run
	exact             map[string]map[int64]float64 // exact metric -> seed -> value
	attempted, failed int
	incorrect         int
}

func sidesOf(results []result) map[string]*side {
	out := make(map[string]*side)
	for _, r := range results {
		s := out[r.Workload]
		if s == nil {
			s = &side{values: make(map[string][]float64), exact: make(map[string]map[int64]float64)}
			out[r.Workload] = s
		}
		if !r.Correct {
			s.incorrect++
		}
		if r.Trace != 0 {
			for _, name := range exactMetrics {
				if s.exact[name] == nil {
					s.exact[name] = make(map[int64]float64)
				}
				s.exact[name][r.Seed] = r.Metrics[name].Value
			}
			continue
		}
		s.attempted += r.Attempted
		s.failed += r.Failed
		for _, d := range endToEnd {
			s.values[d.Name] = append(s.values[d.Name], r.Metrics[d.Name].Value)
		}
	}
	return out
}

// compareFiles prints one row per (workload, metric) with both medians
// and b's ratio to a, and reports whether b regressed: an end-to-end
// median worse than a's by more than the metric's bound, a simulated
// number that differs in any bit for a seed both sides ran, a larger
// share of failed operations, or a run whose checks failed. A metric
// whose own spread on either side exceeds its bound is unresolved: the
// inputs cannot tell a regression from noise, so it is flagged, not
// failed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	ra, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	a, b := sidesOf(ra), sidesOf(rb)
	regressed := false
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta median\tb median\tb/a\tbound\tspread a\tspread b\tverdict\n")
	for _, def := range workloads {
		sa, sb := a[def.name], b[def.name]
		if sa == nil || sb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, mb := stats.Median(sa.values[d.Name]), stats.Median(sb.values[d.Name])
			spa, spb := quartileSpread(sa.values[d.Name]), quartileSpread(sb.values[d.Name])
			worse := mb > ma*(1+d.Bound)
			if d.Better == "higher" {
				worse = mb < ma*(1-d.Bound)
			}
			verdict := "ok"
			switch {
			case len(sa.values[d.Name]) == 0 || len(sb.values[d.Name]) == 0:
				verdict = "missing"
			case spa > d.Bound || spb > d.Bound:
				verdict = "unresolved"
			case worse:
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f (base %.6g)\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				def.name, d.Name, ma, d.Unit, mb, d.Unit, ratio(mb, ma), ma, d.Bound*100, spa*100, spb*100, verdict)
		}
		for _, name := range exactMetrics {
			seeds := make([]int64, 0, len(sa.exact[name]))
			for seed, v := range sa.exact[name] {
				// 0 is a layer that did no work: cp-* and serve-http simulate nothing.
				if _, both := sb.exact[name][seed]; both && v != 0 {
					seeds = append(seeds, seed)
				}
			}
			sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
			for _, seed := range seeds {
				va, vb := sa.exact[name][seed], sb.exact[name][seed]
				verdict := "ok"
				if math.Float64bits(va) != math.Float64bits(vb) {
					verdict = "REGRESSION"
					regressed = true
				}
				fmt.Fprintf(tw, "%s\t%s seed %d\t%v\t%v\t%.4f (base %v)\texact\t-\t-\t%s\n",
					def.name, name, seed, va, vb, ratio(vb, va), va, verdict)
			}
		}
		fa, fb := ratio(float64(sa.failed), float64(sa.attempted)), ratio(float64(sb.failed), float64(sb.attempted))
		verdict := "ok"
		if fb > fa || sb.incorrect > 0 {
			verdict = "REGRESSION"
			regressed = true
		}
		fmt.Fprintf(tw, "%s\tfailed share\t%.4f (%d/%d)\t%.4f (%d/%d)\t-\tno worse\t-\t-\t%s\n",
			def.name, fa, sa.failed, sa.attempted, fb, sb.failed, sb.attempted, verdict)
	}
	return regressed, tw.Flush()
}
