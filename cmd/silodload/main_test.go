package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSelfHostSmoke replays a small storm against the self-hosted
// stack and validates the emitted report's shape and accounting.
func TestSelfHostSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	args := []string{
		"-seed", "7", "-jobs", "150", "-mean-iat", "2ms", "-cv", "2",
		"-datasets", "5", "-min-dataset", "1GB", "-max-dataset", "4GB",
		"-interval", "10ms", "-batch", "4",
		"-capacity", "32", "-high-water", "6", "-std-water", "12",
		"-out", out,
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if !rep.SelfHosted {
		t.Error("self-hosted run not flagged")
	}
	total := 0
	for _, tier := range []string{"critical", "standard", "sheddable"} {
		ts, ok := rep.Tiers[tier]
		if !ok {
			t.Fatalf("report has no %q tier", tier)
		}
		total += ts.Offered
	}
	if total != 150 {
		t.Errorf("tiers account for %d offered submissions, want 150", total)
	}
	if rep.Tiers["critical"].Accepted == 0 {
		t.Error("no critical submission was accepted")
	}
	if rep.TransportErrors != 0 {
		t.Errorf("%d transport errors against a local listener", rep.TransportErrors)
	}
	if rep.WallSeconds <= 0 || rep.OfferedPerSec <= 0 || rep.SustainedPerSec <= 0 {
		t.Errorf("degenerate rates: wall %v offered/s %v sustained/s %v",
			rep.WallSeconds, rep.OfferedPerSec, rep.SustainedPerSec)
	}
	if rep.Rounds == 0 {
		t.Error("round loop never ran")
	}
	if rep.RoundErrors != 0 {
		t.Errorf("%d scheduling rounds failed", rep.RoundErrors)
	}
	if rep.SubmitP99Millis < rep.SubmitP50Millis {
		t.Errorf("p99 %vms below p50 %vms", rep.SubmitP99Millis, rep.SubmitP50Millis)
	}
	if rep.FinalQueueDepth != 0 {
		t.Errorf("backlog not drained: depth %d", rep.FinalQueueDepth)
	}
}

// Bad flags must fail before any listener binds.
func TestFlagValidation(t *testing.T) {
	bad := [][]string{
		{"-jobs", "0"},
		{"-cv", "0"},
		{"-min-dataset", "notasize"},
		{"-max-dataset", "notasize"},
		{"-cache", "notasize"},
		{"-remote", "notasize"},
		{"-max-gpus", "0"},
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
