package controlplane

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datamgr"
	"repro/internal/simrng"
	"repro/internal/unit"
)

// TestLivenessSkipMatchesWalk drives random heartbeats (new, revived
// and refreshing nodes), timeout changes and rounds against a model that
// walks every node every round, and checks that the scheduler, which
// walks only once a node can have expired, declares the same nodes dead
// and counts the same deaths.
func TestLivenessSkipMatchesWalk(t *testing.T) {
	clk := &lockClock{t: time.Unix(0, 0)}
	s, err := NewSchedulerServer(core.Cluster{GPUs: 8, Cache: unit.GiB(100), RemoteIO: unit.MBpsOf(100)},
		&scriptPolicy{}, LocalDataPlane{Mgr: datamgr.New(unit.GiB(100), unit.MBpsOf(100), 1, nil)}, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrng.New(7)
	timeout := 3 * time.Second
	s.SetNodeLivenessTimeout(timeout)
	type node struct {
		seen time.Time
		live bool
	}
	model := map[string]*node{}
	deaths, skipped, walked := 0, 0, 0
	for step := 0; step < 4000; step++ {
		clk.advance(time.Duration(rng.Intn(1200)) * time.Millisecond)
		now := clk.now()
		switch r := rng.Intn(20); {
		case r < 12:
			name := fmt.Sprintf("n%02d", rng.Intn(24))
			if err := s.Heartbeat(HeartbeatRequest{Node: name, GPUs: 1 + rng.Intn(4), Cache: unit.GiB(50)}); err != nil {
				t.Fatal(err)
			}
			model[name] = &node{seen: now, live: true}
		case r < 19:
			s.mu.Lock()
			if !now.After(s.expiry) {
				skipped++
			} else {
				walked++
			}
			s.mu.Unlock()
			if err := s.Schedule(); err != nil {
				t.Fatal(err)
			}
			for _, n := range model {
				if n.live && now.Sub(n.seen) > timeout {
					n.live = false
					deaths++
				}
			}
			for _, st := range s.Nodes() {
				if st.Live != model[st.Node].live {
					t.Fatalf("step %d: node %s live=%v, walking every round gives %v", step, st.Node, st.Live, model[st.Node].live)
				}
			}
			if got := s.met.nodeDeaths.Value(); got != int64(deaths) {
				t.Fatalf("step %d: %d node deaths counted, walking every round gives %d", step, got, deaths)
			}
		default:
			timeout = time.Duration(500+rng.Intn(4000)) * time.Millisecond
			s.SetNodeLivenessTimeout(timeout)
		}
	}
	t.Logf("%d deaths; %d rounds skipped the walk, %d walked", deaths, skipped, walked)
	if deaths == 0 || skipped == 0 || walked == 0 {
		t.Errorf("the run must see deaths (%d), skipped walks (%d) and walks (%d)", deaths, skipped, walked)
	}
}
