package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/unit"
)

// Bad flags must be rejected before any listener binds.
func TestFlagValidation(t *testing.T) {
	bad := [][]string{
		{"-scheduler", "Bogus"},
		{"-system", "Bogus"},
		{"-cache", "notasize"},
		{"-remote", "alsonotasize"},
		{"-tenants", "nocolon"},
		{"-tenants", "acme:notaclass"},
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// testDaemon boots a daemon on loopback ephemeral ports in queued
// serving mode with a fast round loop.
func testDaemon(t *testing.T) *daemon {
	t.Helper()
	d, err := newDaemon(daemonConfig{
		Cluster:   core.Cluster{GPUs: 8, Cache: unit.GiB(100), RemoteIO: unit.MBpsOf(200)},
		Scheduler: policy.FIFOKind,
		System:    policy.SiloD,
		Seed:      1,
		DMAddr:    "127.0.0.1:0",
		SchedAddr: "127.0.0.1:0",
		Interval:  10 * time.Millisecond,
		Drain:     2 * time.Second,
		Queue:     admission.Config{Capacity: 32, HighWater: 8, StandardWater: 16},
		Batch:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func submitBody(t *testing.T, job string) []byte {
	t.Helper()
	body, err := json.Marshal(controlplane.SubmitJobRequest{
		JobID: job, Model: "ResNet-50", Dataset: "imagenet1k",
		DatasetSize: unit.GiB(10), NumGPUs: 1,
		IdealThroughput: unit.MBpsOf(100), TotalBytes: unit.GiB(20),
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestGracefulDrain is the shutdown regression test: submissions in
// flight when the drain starts either complete normally or get a clean
// 503 + Retry-After — never a torn connection — and the daemon's wait
// loop returns nil on SIGTERM.
func TestGracefulDrain(t *testing.T) {
	d := testDaemon(t)
	url := "http://" + d.schedLn.Addr().String()

	// The serving path works before the drain: queued then scheduled.
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(submitBody(t, "warm")))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pre-drain submit: HTTP %d, want 202", resp.StatusCode)
	}

	// Storm the daemon while SIGTERM lands mid-flight.
	sig := make(chan os.Signal, 1)
	waitErr := make(chan error, 1)
	go func() { waitErr <- d.wait(sig) }()
	var wg sync.WaitGroup
	var mu sync.Mutex
	codes := map[int]int{} // guarded by mu
	var torn []string      // guarded by mu
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				body := submitBody(t, fmt.Sprintf("drain-%d-%d", i, j))
				resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					// The listener closed before this connection was
					// accepted: not an in-flight request, so a refusal
					// — or a reset of a connect still in the listen
					// backlog — is the clean outcome. Anything else is a
					// tear.
					if !strings.Contains(err.Error(), "connection refused") &&
						!strings.Contains(err.Error(), "connect: connection reset by peer") &&
						!strings.Contains(err.Error(), "EOF") {
						mu.Lock()
						torn = append(torn, err.Error())
						mu.Unlock()
					}
					return
				}
				retryAfter := resp.Header.Get("Retry-After")
				if cerr := resp.Body.Close(); cerr != nil {
					mu.Lock()
					torn = append(torn, cerr.Error())
					mu.Unlock()
					return
				}
				mu.Lock()
				codes[resp.StatusCode]++
				mu.Unlock()
				if resp.StatusCode == http.StatusServiceUnavailable {
					if retryAfter == "" {
						t.Errorf("drain 503 without Retry-After")
					}
					return
				}
			}
		}(i)
	}
	time.Sleep(30 * time.Millisecond) // let the storm get in flight
	sig <- syscall.SIGTERM
	wg.Wait()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("wait after SIGTERM = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down within the drain deadline")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(torn) > 0 {
		t.Errorf("%d torn connections during drain, e.g. %s", len(torn), torn[0])
	}
	for code := range codes {
		if code != http.StatusAccepted && code != http.StatusServiceUnavailable {
			t.Errorf("drain produced HTTP %d (%d of them), want only 202/503", code, codes[code])
		}
	}
	if codes[http.StatusAccepted] == 0 {
		t.Error("storm never got a submission accepted before the drain")
	}

	// The daemon is actually down: new connections are refused.
	if _, err := http.Get(url + "/v1/jobs"); err == nil {
		t.Error("scheduler listener still accepting after shutdown")
	}
}

// TestListenerErrorPropagates: when a listener dies underneath the
// daemon, wait returns the error instead of hanging.
func TestListenerErrorPropagates(t *testing.T) {
	d := testDaemon(t)
	if err := d.schedLn.Close(); err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal)
	done := make(chan error, 1)
	go func() { done <- d.wait(sig) }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("wait returned nil after listener death")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wait did not notice the dead listener")
	}
}
