package policy

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refScanOrder sorts e the way the probe sorted its scan order before
// scoreSorter: slices.SortFunc with byScore, descending.
func refScanOrder(e []scored, keys []string) {
	slices.SortFunc(e, func(a, b scored) int {
		return byScore(a.score, b.score, keys[a.idx], keys[b.idx], true)
	})
}

// checkScoreOrder sorts a copy of e with scoreSorter and one with the
// reference, both from e's order, and reports the first difference.
func checkScoreOrder(o *scoreSorter, e []scored, keys []string) error {
	got := slices.Clone(e)
	want := slices.Clone(e)
	o.sort(got, keys)
	refScanOrder(want, keys)
	for k := range want {
		if got[k].idx != want[k].idx || math.Float64bits(got[k].score) != math.Float64bits(want[k].score) {
			return fmt.Errorf("position %d of %d: entry %d (%v), reference %d (%v)",
				k, len(e), got[k].idx, got[k].score, want[k].idx, want[k].score)
		}
	}
	return nil
}

// scoreFamily is one named set of scores.
type scoreFamily struct {
	name   string
	scores []float64
}

// scoreFamilies draws n scores from each family the order must handle:
// exact ties, scores 1–4 ulps apart, ±0, negative scores, NaN, and
// spread-out values.
func scoreFamilies(rng *rand.Rand, n int) []scoreFamily {
	var fams []scoreFamily
	draw := func(name string, f func(i int) float64) {
		s := make([]float64, n)
		for i := range s {
			s[i] = f(i)
		}
		fams = append(fams, scoreFamily{name, s})
	}
	draw("ties", func(int) float64 { return float64(1 + rng.Intn(3)) })
	draw("ulps", func(int) float64 {
		x := 1e6 * float64(1+rng.Intn(4))
		for u := rng.Intn(5); u > 0; u-- {
			x = math.Nextafter(x, math.Inf(1))
		}
		return x
	})
	draw("zeros", func(int) float64 {
		return []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}[rng.Intn(4)]
	})
	draw("negative", func(int) float64 { return -rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(20)-10)) })
	draw("nan", func(i int) float64 {
		if rng.Intn(8) == 0 {
			return math.NaN()
		}
		return rng.NormFloat64()
	})
	draw("spread", func(int) float64 {
		return rng.NormFloat64() * math.Pow(2, float64(rng.Intn(200)-100))
	})
	draw("inf", func(int) float64 {
		return []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 1}[rng.Intn(5)]
	})
	return fams
}

// scoreEntries returns entries for scores in a random start order, with
// unique keys whose order is unrelated to the entries' indices.
func scoreEntries(rng *rand.Rand, scores []float64) ([]scored, []string) {
	e := make([]scored, len(scores))
	keys := make([]string, len(scores))
	for i, k := range rng.Perm(len(scores)) {
		e[i] = scored{score: scores[i], idx: i}
		keys[i] = fmt.Sprintf("key-%07d", k)
	}
	rng.Shuffle(len(e), func(a, b int) { e[a], e[b] = e[b], e[a] })
	return e, keys
}

// TestScoreOrderMatchesSortFunc: scoreSorter reaches the order
// slices.SortFunc with byScore reaches from the same start, on ties,
// near-ties, signed zeros, negative scores, infinities and NaN.
func TestScoreOrderMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var o scoreSorter
	for _, n := range []int{0, 1, 2, 3, 209, 5000} {
		for _, fam := range scoreFamilies(rng, n) {
			e, keys := scoreEntries(rng, fam.scores)
			if err := checkScoreOrder(&o, e, keys); err != nil {
				t.Fatalf("n=%d %s: %v", n, fam.name, err)
			}
			// From the order the probe persists: sorted already.
			refScanOrder(e, keys)
			if err := checkScoreOrder(&o, e, keys); err != nil {
				t.Fatalf("n=%d %s, sorted start: %v", n, fam.name, err)
			}
		}
	}
}

// FuzzScoreOrder checks scoreSorter against slices.SortFunc with
// byScore on scores taken eight bytes at a time from the input (raw
// float64 bits, so NaN payloads, infinities, subnormals and signed
// zeros all occur), at most 512 of them.
func FuzzScoreOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/8, 512)
		e := make([]scored, n)
		keys := make([]string, n)
		for i := range e {
			e[i] = scored{score: math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])), idx: i}
			keys[i] = fmt.Sprintf("k%03d", (n-i)*7%1000)
		}
		var o scoreSorter
		if err := checkScoreOrder(&o, e, keys); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkScoreSort times scoreSorter against slices.SortFunc with
// byScore from the same shuffled start, on spread-out scores and on
// scores drawn from three values, where every run of exact ties is
// left to the exact sort.
func BenchmarkScoreSort(b *testing.B) {
	for _, n := range []int{209, 1 << 16} {
		rng := rand.New(rand.NewSource(int64(n)))
		scores := map[string][]float64{"spread": make([]float64, n), "ties": make([]float64, n)}
		for i := 0; i < n; i++ {
			scores["spread"][i] = rng.ExpFloat64()
			scores["ties"][i] = float64(1 + rng.Intn(3))
		}
		for _, fam := range []string{"spread", "ties"} {
			start, keys := scoreEntries(rng, scores[fam])
			e := make([]scored, n)
			var o scoreSorter
			for _, sorter := range []string{"packed", "sortfunc"} {
				b.Run(fmt.Sprintf("n=%d/%s/%s", n, fam, sorter), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						copy(e, start)
						if sorter == "packed" {
							o.sort(e, keys)
						} else {
							refScanOrder(e, keys)
						}
					}
				})
			}
		}
	}
}
