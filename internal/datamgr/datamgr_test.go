package datamgr

import (
	"sync"
	"testing"
	"time"

	"repro/internal/unit"
)

func newMgr(t *testing.T) *Manager {
	t.Helper()
	clk := time.Now
	m := New(unit.GiB(10), unit.MBpsOf(100), 1, clk)
	if err := m.RegisterDataset("ds", unit.GiB(4), 64*unit.MB); err != nil {
		t.Fatal(err)
	}
	if err := m.AttachJob("job", "ds"); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestReadHitMissAccounting(t *testing.T) {
	m := newMgr(t)
	if err := m.AllocateCacheSize("ds", unit.GiB(4)); err != nil {
		t.Fatal(err)
	}
	if err := m.AllocateRemoteIO("job", unit.MBpsOf(100)); err != nil {
		t.Fatal(err)
	}
	if err := m.EpochStart("job"); err != nil {
		t.Fatal(err)
	}
	r, err := m.Read("job", 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hit {
		t.Error("cold read hit")
	}
	r, _ = m.Read("job", 0)
	if !r.Hit {
		t.Error("second read missed despite quota")
	}
	st, err := m.Stats("job")
	if err != nil {
		t.Fatal(err)
	}
	if st.HitBlocks != 1 || st.MissBlocks != 1 {
		t.Errorf("hits/misses = %d/%d", st.HitBlocks, st.MissBlocks)
	}
	if st.RemoteBytes != 64*unit.MB {
		t.Errorf("remote bytes %v", st.RemoteBytes)
	}
	if st.AccessedBlocks != 1 {
		t.Errorf("accessed %d distinct blocks", st.AccessedBlocks)
	}
}

func TestQuotaEnforcedOnReads(t *testing.T) {
	m := newMgr(t)
	if err := m.AllocateCacheSize("ds", 2*64*unit.MB); err != nil {
		t.Fatal(err)
	}
	m.AllocateRemoteIO("job", unit.MBpsOf(100))
	m.EpochStart("job")
	for blk := 0; blk < 5; blk++ {
		m.Read("job", blk)
	}
	if got := m.CachedBytes("ds"); got != 2*64*unit.MB {
		t.Errorf("cached %v, want exactly the quota", got)
	}
	// Shrinking evicts.
	if err := m.AllocateCacheSize("ds", 64*unit.MB); err != nil {
		t.Fatal(err)
	}
	if got := m.CachedBytes("ds"); got != 64*unit.MB {
		t.Errorf("after shrink cached %v", got)
	}
}

func TestEffectiveCacheSnapshot(t *testing.T) {
	m := newMgr(t)
	m.AllocateCacheSize("ds", unit.GiB(4))
	m.AllocateRemoteIO("job", unit.MBpsOf(100))
	m.EpochStart("job")
	for blk := 0; blk < 8; blk++ {
		m.Read("job", blk)
	}
	st, _ := m.Stats("job")
	// Blocks admitted during the epoch are NOT effective yet.
	if st.EffectiveCached != 0 {
		t.Errorf("mid-epoch effective %v, want 0 (delayed effectiveness)", st.EffectiveCached)
	}
	m.EpochStart("job")
	st, _ = m.Stats("job")
	if st.EffectiveCached != 8*64*unit.MB {
		t.Errorf("post-epoch effective %v, want 8 blocks", st.EffectiveCached)
	}
	if st.AccessedBlocks != 0 {
		t.Error("epoch start did not reset the access bitset")
	}
}

func TestThrottleWait(t *testing.T) {
	m := newMgr(t)
	m.AllocateCacheSize("ds", 0)
	if err := m.AllocateRemoteIO("job", unit.MBpsOf(64)); err != nil {
		t.Fatal(err)
	}
	m.EpochStart("job")
	// Burst covers one block; the second must wait ~1s at 64 MB/s.
	m.Read("job", 0)
	r, _ := m.Read("job", 1)
	if r.Wait < 500*time.Millisecond || r.Wait > 2*time.Second {
		t.Errorf("throttle wait %v, want ~1s", r.Wait)
	}
}

func TestLedgerRejectsOversubscription(t *testing.T) {
	m := newMgr(t)
	if err := m.RegisterDataset("ds2", unit.GiB(1), 64*unit.MB); err != nil {
		t.Fatal(err)
	}
	if err := m.AttachJob("job2", "ds2"); err != nil {
		t.Fatal(err)
	}
	if err := m.AllocateRemoteIO("job", unit.MBpsOf(80)); err != nil {
		t.Fatal(err)
	}
	if err := m.AllocateRemoteIO("job2", unit.MBpsOf(30)); err == nil {
		t.Error("egress oversubscription accepted")
	}
}

func TestErrors(t *testing.T) {
	m := newMgr(t)
	if err := m.AttachJob("job", "ds"); err == nil {
		t.Error("duplicate attach accepted")
	}
	if err := m.AttachJob("x", "missing"); err == nil {
		t.Error("attach to unknown dataset accepted")
	}
	if _, err := m.Read("ghost", 0); err == nil {
		t.Error("read from unknown job accepted")
	}
	if _, err := m.Read("job", 1e6); err == nil {
		t.Error("out-of-range block accepted")
	}
	if err := m.AllocateCacheSize("missing", 1); err == nil {
		t.Error("quota for unknown dataset accepted")
	}
	if err := m.AllocateRemoteIO("ghost", 1); err == nil {
		t.Error("IO for unknown job accepted")
	}
	if err := m.EpochStart("ghost"); err == nil {
		t.Error("epoch for unknown job accepted")
	}
	if _, err := m.Stats("ghost"); err == nil {
		t.Error("stats for unknown job accepted")
	}
	if err := m.RegisterDataset("bad", 0, 0); err == nil {
		t.Error("bad geometry accepted")
	}
}

func TestDetachReleasesIO(t *testing.T) {
	m := newMgr(t)
	m.AllocateRemoteIO("job", unit.MBpsOf(100))
	m.DetachJob("job")
	if err := m.RegisterDataset("d2", unit.GiB(1), 64*unit.MB); err != nil {
		t.Fatal(err)
	}
	if err := m.AttachJob("j2", "d2"); err != nil {
		t.Fatal(err)
	}
	if err := m.AllocateRemoteIO("j2", unit.MBpsOf(100)); err != nil {
		t.Errorf("detach did not release the egress: %v", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	m := newMgr(t)
	m.AllocateCacheSize("ds", unit.GiB(2))
	m.AllocateRemoteIO("job", unit.MBpsOf(40))
	snap := m.Snapshot()

	fresh := New(unit.GiB(10), unit.MBpsOf(100), 2, nil)
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Snapshot().Quotas["ds"]; got != unit.GiB(2) {
		t.Errorf("restored quota %v", got)
	}
	st, err := fresh.Stats("job")
	if err != nil {
		t.Fatal(err)
	}
	if st.RemoteIO != unit.MBpsOf(40) {
		t.Errorf("restored IO %v", st.RemoteIO)
	}
	if st.Dataset != "ds" {
		t.Errorf("restored binding %q", st.Dataset)
	}
}

// TestConcurrentReads drives the manager from many goroutines — the
// testbed's access pattern — under the race detector.
func TestConcurrentReads(t *testing.T) {
	m := New(unit.GiB(64), unit.MBpsOf(1e6), 3, nil)
	const jobs = 8
	for i := 0; i < jobs; i++ {
		ds := string(rune('a' + i))
		if err := m.RegisterDataset(ds, unit.GiB(4), 64*unit.MB); err != nil {
			t.Fatal(err)
		}
		if err := m.AttachJob("job-"+ds, ds); err != nil {
			t.Fatal(err)
		}
		if err := m.AllocateCacheSize(ds, unit.GiB(4)); err != nil {
			t.Fatal(err)
		}
		if err := m.AllocateRemoteIO("job-"+ds, unit.MBpsOf(1e5)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		ds := string(rune('a' + i))
		wg.Add(1)
		go func(job string) {
			defer wg.Done()
			for epoch := 0; epoch < 3; epoch++ {
				if err := m.EpochStart(job); err != nil {
					t.Error(err)
					return
				}
				for blk := 0; blk < 64; blk++ {
					if _, err := m.Read(job, blk); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}("job-" + ds)
	}
	wg.Wait()
	for i := 0; i < jobs; i++ {
		st, err := m.Stats("job-" + string(rune('a'+i)))
		if err != nil {
			t.Fatal(err)
		}
		// Epoch 1 misses everything; epochs 2-3 hit everything.
		if st.MissBlocks != 64 || st.HitBlocks != 128 {
			t.Errorf("job %d: hits/misses = %d/%d, want 128/64", i, st.HitBlocks, st.MissBlocks)
		}
	}
}
