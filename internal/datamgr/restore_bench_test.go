package datamgr

import (
	"fmt"
	"testing"

	"repro/internal/unit"
)

// BenchmarkRestore times the crash-recovery path (§6) that rebuilds a
// fresh manager from an n-job snapshot: one AttachJob and one
// AllocateRemoteIO per job, so it scales with the ledger's Set.
func BenchmarkRestore(b *testing.B) {
	for _, n := range []int{400, 4000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			snap := Snapshot{
				Quotas:   map[string]unit.Bytes{},
				RemoteIO: map[string]unit.Bandwidth{},
				Datasets: map[string]DatasetGeom{},
				Jobs:     map[string]string{},
			}
			for d := 0; d < 50; d++ {
				ds := fmt.Sprintf("ds%03d", d)
				snap.Datasets[ds] = DatasetGeom{Size: unit.GiB(50), BlockSize: 64 * unit.MB}
				snap.Quotas[ds] = unit.GiB(10)
			}
			for i := 0; i < n; i++ {
				id := fmt.Sprintf("j%05d", i)
				snap.Jobs[id] = fmt.Sprintf("ds%03d", i%50)
				snap.RemoteIO[id] = unit.MBpsOf(1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := New(unit.TiB(1), unit.GBpsOf(10), 1, nil)
				if err := m.Restore(snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
