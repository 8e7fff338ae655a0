package policy

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/keysort"
)

// orderShape is one comparator keysort.Sorter serves on the greedy and
// max-min paths, applied to ranked records whose id is keys[i]: sort
// runs the integer-key sort, ref slices.SortFunc with the same
// comparator.
type orderShape struct {
	name      string
	sort, ref func(e []ranked, keys []string)
}

// fillOrder is remoteio's fillCmp, spelled over ranked: ascending, ties
// (and NaN, which is what makes it no strict weak order) to the ID.
// remoteio's own test runs the original.
func fillOrder(a, b ranked) int {
	switch {
	case a.score < b.score:
		return -1
	case a.score > b.score:
		return 1
	}
	return strings.Compare(a.id, b.id)
}

// scanOrder runs sortScan over e as the probe's scored entries (group
// index i, tie key keys[i]) and writes the result back.
func scanOrder(e []ranked, keys []string, sortScan func(sc []scored, cmp func(a, b scored) int)) {
	sc := make([]scored, len(e))
	for k, r := range e {
		sc[k] = scored{score: r.score, idx: r.i}
	}
	sortScan(sc, func(a, b scored) int {
		return byScore(a.score, b.score, keys[a.idx], keys[b.idx], true)
	})
	for k, x := range sc {
		e[k] = ranked{x.score, keys[x.idx], x.idx}
	}
}

// orderShapes returns every comparator shape, each with its own
// Sorter so buffers carry over between calls as they do in use.
func orderShapes() []orderShape {
	var asc, desc, fill keysort.Sorter[ranked]
	var scan keysort.Sorter[scored]
	plain := func(name string, o *keysort.Sorter[ranked], key func(ranked) (uint64, bool), cmp func(a, b ranked) int) orderShape {
		return orderShape{
			name: name,
			sort: func(e []ranked, _ []string) { o.Sort(e, key, cmp) },
			ref:  func(e []ranked, _ []string) { slices.SortFunc(e, cmp) },
		}
	}
	return []orderShape{
		plain("rankedAsc", &asc, rankedAscKey, rankedAsc),
		plain("rankedDesc", &desc, rankedDescKey, rankedDesc),
		plain("fillCmp", &fill, rankedAscKey, fillOrder),
		{
			name: "scan",
			sort: func(e []ranked, keys []string) {
				scanOrder(e, keys, func(sc []scored, cmp func(a, b scored) int) { scan.Sort(sc, scanKey, cmp) })
			},
			ref: func(e []ranked, keys []string) {
				scanOrder(e, keys, func(sc []scored, cmp func(a, b scored) int) { slices.SortFunc(sc, cmp) })
			},
		},
	}
}

// checkOrder sorts a copy of e each way from e's order and reports the
// first difference.
func checkOrder(sh orderShape, e []ranked, keys []string) error {
	got := slices.Clone(e)
	want := slices.Clone(e)
	sh.sort(got, keys)
	sh.ref(want, keys)
	for k := range want {
		if got[k].i != want[k].i || math.Float64bits(got[k].score) != math.Float64bits(want[k].score) {
			return fmt.Errorf("%s: position %d of %d: entry %d (%v), reference %d (%v)",
				sh.name, k, len(e), got[k].i, got[k].score, want[k].i, want[k].score)
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

// scoreEntries returns records for scores in a random start order, with
// unique IDs (keys[i] for record i) whose order is unrelated to the
// records' indices.
func scoreEntries(rng *rand.Rand, scores []float64) ([]ranked, []string) {
	e := make([]ranked, len(scores))
	keys := make([]string, len(scores))
	for i, k := range rng.Perm(len(scores)) {
		keys[i] = fmt.Sprintf("key-%07d", k)
		e[i] = ranked{scores[i], keys[i], i}
	}
	rng.Shuffle(len(e), func(a, b int) { e[a], e[b] = e[b], e[a] })
	return e, keys
}

// TestScoreOrderMatchesSortFunc: for every comparator the integer-key
// sort serves, it reaches the order slices.SortFunc reaches from the
// same start, on ties, near-ties, signed zeros, negative scores,
// infinities and NaN.
func TestScoreOrderMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := orderShapes()
	for _, n := range []int{0, 1, 2, 3, 12, 209, 5000} {
		for _, fam := range scoreFamilies(rng, n) {
			e, keys := scoreEntries(rng, fam.scores)
			for _, sh := range shapes {
				if err := checkOrder(sh, e, keys); err != nil {
					t.Fatalf("n=%d %s: %v", n, fam.name, err)
				}
				// From a sorted start, the order a persisted scan
				// keeps between probes.
				sorted := slices.Clone(e)
				sh.ref(sorted, keys)
				if err := checkOrder(sh, sorted, keys); err != nil {
					t.Fatalf("n=%d %s, sorted start: %v", n, fam.name, err)
				}
			}
		}
	}
}

// FuzzScoreOrder checks every comparator shape's integer-key sort
// against slices.SortFunc on scores taken eight bytes at a time from
// the input (raw float64 bits, so NaN payloads, infinities, subnormals
// and signed zeros all occur), at most 512 of them.
func FuzzScoreOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1)))
	shapes := orderShapes()
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/8, 512)
		e := make([]ranked, n)
		keys := make([]string, n)
		for i := range e {
			keys[i] = fmt.Sprintf("k%03d", (n-i)*7%1000)
			e[i] = ranked{math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])), keys[i], i}
		}
		for _, sh := range shapes {
			if err := checkOrder(sh, e, keys); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// BenchmarkScoreSort times the integer-key sort against slices.SortFunc
// from the same shuffled start, for the ranked orders (job-ID ties, n
// from the control plane's small rounds up) and the probe's scan order,
// on spread-out scores and on scores drawn from three values, where
// every run of exact ties is left to the comparator.
func BenchmarkScoreSort(b *testing.B) {
	for _, n := range []int{2, 8, 32, 209, 1 << 16} {
		rng := rand.New(rand.NewSource(int64(n)))
		scores := map[string][]float64{"spread": make([]float64, n), "ties": make([]float64, n)}
		for i := 0; i < n; i++ {
			scores["spread"][i] = rng.ExpFloat64()
			scores["ties"][i] = float64(1 + rng.Intn(3))
		}
		for _, fam := range []string{"spread", "ties"} {
			start, keys := scoreEntries(rng, scores[fam])
			e := make([]ranked, n)
			sc := make([]scored, n)
			var o keysort.Sorter[ranked]
			var os keysort.Sorter[scored]
			scanCmp := func(a, b scored) int {
				return byScore(a.score, b.score, keys[a.idx], keys[b.idx], true)
			}
			for _, sorter := range []string{"packed", "sortfunc"} {
				b.Run(fmt.Sprintf("n=%d/%s/ranked/%s", n, fam, sorter), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						copy(e, start)
						if sorter == "packed" {
							o.Sort(e, rankedAscKey, rankedAsc)
						} else {
							slices.SortFunc(e, rankedAsc)
						}
					}
				})
				b.Run(fmt.Sprintf("n=%d/%s/scan/%s", n, fam, sorter), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						for k, r := range start {
							sc[k] = scored{score: r.score, idx: r.i}
						}
						if sorter == "packed" {
							os.Sort(sc, scanKey, scanCmp)
						} else {
							slices.SortFunc(sc, scanCmp)
						}
					}
				})
			}
		}
	}
}
