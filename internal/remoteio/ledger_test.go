package remoteio

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/unit"
)

// ledgerOpSize is one encoded FuzzLedger operation: an opcode byte
// (mod 3: Set, Remove, Resize), a job byte (mod 8) and the raw
// little-endian bits of the float64 argument. Inputs are cut to
// ledgerMaxOps operations so every execution stays fast.
const (
	ledgerOpSize = 10
	ledgerMaxOps = 64
)

// refSum is the oracle's total: the exact sum, in math/big at a
// precision that holds any sum of float64s this test can build,
// rounded to nearest even once.
func refSum(vals []float64) float64 {
	acc := new(big.Float).SetPrec(4096)
	for _, v := range vals {
		acc.Add(acc, new(big.Float).SetPrec(4096).SetFloat64(v))
	}
	f, _ := acc.Float64()
	return f
}

// ledgerValues reads the allocation set back through the public API.
func ledgerValues(l *Ledger) []float64 {
	var vals []float64
	for _, id := range ledgerJobs(l) {
		vals = append(vals, float64(l.Get(id)))
	}
	return vals
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzLedger checks the ledger against an oracle that shares none of
// its summation: a shadow map of the allocations and a math/big sum
// recomputed from Jobs() and Get() after every operation. Set must
// accept exactly what the oracle accepts, Allocated, Free and both
// gauges must equal the oracle's once-rounded total bit for bit, and an
// accepted Set never leaves the total over capacity·(1+1e-6)+1.
func FuzzLedger(f *testing.F) {
	f.Fuzz(func(t *testing.T, capBits uint64, ops []byte) {
		capacity := math.Float64frombits(capBits)
		if !(capacity >= 0) {
			capacity = 0
		}
		reg := metrics.NewRegistry("fuzz")
		met := NewLedgerMetrics(reg)
		l := NewLedger(unit.Bandwidth(capacity))
		l.SetMetrics(met)
		shadow := map[string]float64{}
		ops = ops[:min(len(ops), ledgerMaxOps*ledgerOpSize)]
		for len(ops) >= ledgerOpSize {
			code, job := ops[0]%3, fmt.Sprintf("j%d", ops[1]%8)
			v := math.Float64frombits(binary.LittleEndian.Uint64(ops[2:]))
			ops = ops[ledgerOpSize:]
			switch code {
			case 0: // Set
				after := []float64{v}
				for id, w := range shadow {
					if id != job {
						after = append(after, w)
					}
				}
				bound := capacity*(1+1e-6) + 1
				ok := v >= 0 && !math.IsInf(v, 1) && refSum(after) <= bound
				err := l.Set(job, unit.Bandwidth(v))
				if (err == nil) != ok {
					t.Fatalf("Set(%s, %v) = %v, oracle accepts: %v", job, v, err, ok)
				}
				if ok {
					shadow[job] = v
					if got := refSum(ledgerValues(l)); got > bound {
						t.Fatalf("accepted Set(%s, %v) leaves %v allocated, bound %v", job, v, got, bound)
					}
				}
			case 1: // Remove
				l.Remove(job)
				delete(shadow, job)
			case 2: // Resize
				got := l.Resize(unit.Bandwidth(v))
				if !(v >= 0) {
					v = 0
				}
				var vals []float64
				for _, w := range shadow {
					vals = append(vals, w)
				}
				total := refSum(vals)
				capacity = v
				if total <= v {
					if got != nil {
						t.Fatalf("Resize(%v) under total %v rescaled: %v", v, total, got)
					}
					break
				}
				ratio := v / total
				for id, w := range shadow {
					shadow[id] = w * ratio
					if nbw, ok := got[id]; !ok || !sameBits(float64(nbw), shadow[id]) {
						t.Fatalf("Resize(%v): %s scaled to %v, want %v", v, id, nbw, shadow[id])
					}
				}
				if len(got) != len(shadow) {
					t.Fatalf("Resize(%v) reported %d changes, want %d", v, len(got), len(shadow))
				}
			}
			checkLedger(t, l, met, shadow, capacity)
		}
	})
}

// checkLedger compares every read of l with the shadow allocation set.
func checkLedger(t *testing.T, l *Ledger, met LedgerMetrics, shadow map[string]float64, capacity float64) {
	t.Helper()
	want := make([]string, 0, len(shadow))
	for id := range shadow {
		want = append(want, id)
	}
	slices.Sort(want)
	if got := ledgerJobs(l); !slices.Equal(got, want) {
		t.Fatalf("Jobs() = %v, want %v", got, want)
	}
	for _, id := range want {
		if got := float64(l.Get(id)); !sameBits(got, shadow[id]) {
			t.Fatalf("Get(%s) = %v, want %v", id, got, shadow[id])
		}
	}
	if got := float64(l.capacity); !sameBits(got, capacity) {
		t.Fatalf("Capacity() = %v, want %v", got, capacity)
	}
	total := refSum(ledgerValues(l))
	if got := float64(ledgerTotal(l)); !sameBits(got, total) {
		t.Fatalf("Allocated() = %v (%#x), oracle %v (%#x)", got, math.Float64bits(got), total, math.Float64bits(total))
	}
	free := capacity - total
	if free < 0 {
		free = 0
	}
	if got := float64(ledgerFree(l)); !sameBits(got, free) {
		t.Fatalf("Free() = %v, want %v", got, free)
	}
	if got := met.Allocated.Value(); !sameBits(got, total) {
		t.Fatalf("allocated gauge = %v, want %v", got, total)
	}
	if capacity > 0 {
		if got, want := met.Utilization.Value(), total/capacity; !sameBits(got, want) {
			t.Fatalf("utilization gauge = %v, want %v", got, want)
		}
	}
}

// TestLedgerTotalIndependentOfOrder: two ledgers that reach the same
// allocation set by different paths, with removals on the way, report
// the same total bit for bit, and it is the correctly rounded exact
// sum (2^53+2), which no left-to-right float64 sum in ID order gives.
func TestLedgerTotalIndependentOfOrder(t *testing.T) {
	type step struct {
		id string
		bw unit.Bandwidth // < 0 removes id
	}
	paths := [][]step{
		{{"a", 0x1p53}, {"b", 1}, {"c", 1}},
		{{"c", 1}, {"b", 7}, {"a", 3}, {"b", -1}, {"a", 0x1p53}, {"d", 5}, {"b", 1}, {"d", -1}},
		{{"b", 1}, {"c", 0x1p52}, {"a", 0x1p53}, {"c", -1}, {"c", 1}},
	}
	var want uint64
	for i, path := range paths {
		l := NewLedger(0x1p60)
		for _, s := range path {
			if s.bw < 0 {
				l.Remove(s.id)
				continue
			}
			if err := l.Set(s.id, s.bw); err != nil {
				t.Fatal(err)
			}
		}
		got := math.Float64bits(float64(ledgerTotal(l)))
		if i == 0 {
			want = got
		}
		if got != want {
			t.Errorf("path %d: Allocated() bits %#x, path 0 %#x", i, got, want)
		}
	}
	if got := math.Float64frombits(want); got != 0x1p53+2 {
		t.Errorf("Allocated() = %v, want the exact sum 2^53+2", got)
	}
}

// TestLedgerRejectsNonFinite: a NaN or infinite rate is refused, leaves
// the ledger untouched, and the oversubscription check still holds.
func TestLedgerRejectsNonFinite(t *testing.T) {
	l := NewLedger(unit.MBpsOf(100))
	for _, bw := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := l.Set("a", unit.Bandwidth(bw)); err == nil {
			t.Errorf("Set(%v) accepted", bw)
		}
	}
	if jobs := ledgerJobs(l); len(jobs) != 0 {
		t.Errorf("rejected rates were recorded: %v", jobs)
	}
	if err := l.Set("b", unit.MBpsOf(101)); err == nil {
		t.Error("oversubscription accepted after a rejected NaN")
	}
	if got := ledgerTotal(l); got != 0 {
		t.Errorf("Allocated = %v", got)
	}
}

// TestLedgerResizePublishes: a resize that rescales nothing still
// moves the utilization gauge, whose denominator it changed.
func TestLedgerResizePublishes(t *testing.T) {
	reg := metrics.NewRegistry("test")
	l := NewLedger(unit.MBpsOf(100))
	met := NewLedgerMetrics(reg)
	l.SetMetrics(met)
	if err := l.Set("a", unit.MBpsOf(50)); err != nil {
		t.Fatal(err)
	}
	l.Resize(unit.MBpsOf(200))
	if got := met.Utilization.Value(); got != 0.25 {
		t.Errorf("utilization after growing the link = %v, want 0.25", got)
	}
}

// TestLedgerSetRemoveAllocateNothing: on a ledger holding thousands of
// jobs, re-setting and removing a job allocates nothing.
func TestLedgerSetRemoveAllocateNothing(t *testing.T) {
	l := NewLedger(unit.GBpsOf(1))
	l.SetMetrics(NewLedgerMetrics(metrics.NewRegistry("test")))
	for i := 0; i < 4000; i++ {
		if err := l.Set(fmt.Sprintf("job-%04d", i), unit.KBps); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	if got := testing.AllocsPerRun(100, func() {
		l.Remove("job-0007")
		err = l.Set("job-0007", unit.MBps)
	}); got != 0 {
		t.Errorf("Set+Remove: %v allocs/op, want 0", got)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLedgerSet times one Set on a ledger holding n jobs, raising
// a job to 1 MB/s and zeroing it on alternate calls like the benchmark
// probe: flat in n and allocation-free.
func BenchmarkLedgerSet(b *testing.B) {
	for _, n := range []int{400, 4000, 24000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			l := NewLedger(unit.GBpsOf(1))
			ids := make([]string, n)
			for i := range ids {
				ids[i] = fmt.Sprintf("job-%06d", i)
				if err := l.Set(ids[i], 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Set(ids[i/2%n], unit.MBps*unit.Bandwidth(1-i%2)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
