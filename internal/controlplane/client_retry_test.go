package controlplane

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simrng"
)

// retryServer fails the first n requests with the given status (and
// optional Retry-After header) and then succeeds.
func retryServer(t *testing.T, failures int, status int, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(failures) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(status)
			_, _ = w.Write([]byte(`{"error":"induced failure"}`))
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{}`))
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

// Per-status retry matrix: which failures the client retries and which
// are terminal on the first response.
func TestClientRetryPerStatus(t *testing.T) {
	cases := []struct {
		name       string
		status     int
		retryAfter string
		wantCalls  int64
		wantOK     bool
	}{
		{"500 retries", http.StatusInternalServerError, "", 3, true},
		{"503 retries", http.StatusServiceUnavailable, "", 3, true},
		{"503 with Retry-After retries", http.StatusServiceUnavailable, "0", 3, true},
		{"429 with Retry-After retries", http.StatusTooManyRequests, "0", 3, true},
		{"429 without hint is terminal", http.StatusTooManyRequests, "", 1, false},
		{"400 is terminal", http.StatusBadRequest, "", 1, false},
		{"404 is terminal", http.StatusNotFound, "", 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, calls := retryServer(t, 2, tc.status, tc.retryAfter)
			c := NewClient(srv.URL)
			c.attempts, c.backoff, c.rng = 3, 0, simrng.New(1) // zero backoff: retries don't sleep
			err := c.EpochStart("j")
			if tc.wantOK && err != nil {
				t.Fatalf("want recovery after retries, got %v", err)
			}
			if !tc.wantOK && err == nil {
				t.Fatal("want terminal failure, got success")
			}
			if got := calls.Load(); got != tc.wantCalls {
				t.Errorf("server saw %d calls, want %d", got, tc.wantCalls)
			}
		})
	}
}

// TestClientRetryExhaustion: a server that never recovers consumes the
// whole attempt budget and reports it.
func TestClientRetryExhaustion(t *testing.T) {
	srv, calls := retryServer(t, 100, http.StatusServiceUnavailable, "0")
	c := NewClient(srv.URL)
	c.attempts, c.backoff, c.rng = 4, 0, simrng.New(1)
	err := c.EpochStart("j")
	if err == nil || !strings.Contains(err.Error(), "giving up after 4 attempts") {
		t.Fatalf("exhaustion error = %v", err)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("server saw %d calls, want 4", got)
	}
}

// TestRetryDelayHonorsHint: the Retry-After hint replaces the
// exponential base, capped at maxRetryAfter, with bounded jitter — and
// the same seed yields the same delays.
func TestRetryDelayHonorsHint(t *testing.T) {
	mk := func(seed int64) *Client {
		c := NewClient("http://unused")
		c.attempts, c.backoff, c.rng = 5, 50*time.Millisecond, simrng.New(seed)
		return c
	}
	c := mk(1)
	// No hint: exponential from the configured backoff, jitter < 50%.
	for attempt, base := range map[int]time.Duration{
		1: 50 * time.Millisecond,
		2: 100 * time.Millisecond,
		3: 200 * time.Millisecond,
	} {
		d := c.retryDelay(attempt, 0)
		if d < base || d > base+base/2 {
			t.Errorf("attempt %d delay %v outside [%v, %v]", attempt, d, base, base+base/2)
		}
	}
	// The exponential base never exceeds maxBackoff.
	if d := c.retryDelay(60, 0); d > maxBackoff+maxBackoff/2 {
		t.Errorf("uncapped exponential delay %v", d)
	}
	// A hint replaces the base.
	if d := c.retryDelay(1, 2*time.Second); d < 2*time.Second || d > 3*time.Second {
		t.Errorf("hinted delay %v outside [2s, 3s]", d)
	}
	// A hostile hint is capped.
	if d := c.retryDelay(1, time.Hour); d > maxRetryAfter+maxRetryAfter/2 {
		t.Errorf("capped hint produced %v", d)
	}
	// Zero backoff and no hint: no sleeping at all.
	c.attempts, c.backoff = 3, 0
	if d := c.retryDelay(1, 0); d != 0 {
		t.Errorf("zero-backoff delay = %v", d)
	}
	// Seeded determinism.
	a, b := mk(9), mk(9)
	for i := 1; i < 4; i++ {
		if da, db := a.retryDelay(i, time.Second), b.retryDelay(i, time.Second); da != db {
			t.Fatalf("attempt %d: same seed, different delays (%v vs %v)", i, da, db)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := map[string]struct {
		d  time.Duration
		ok bool
	}{
		"":                              {0, false},
		"0":                             {0, true}, // "retry now" is a hint, distinct from no header
		"-3":                            {0, false},
		"2":                             {2 * time.Second, true},
		"30":                            {30 * time.Second, true},
		"garbage":                       {0, false},
		"Wed, 21 Oct 2026 07:28:00 GMT": {0, false}, // HTTP-date form: not emitted, not parsed
	}
	for in, want := range cases {
		if d, ok := parseRetryAfter(in); d != want.d || ok != want.ok {
			t.Errorf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)", in, d, ok, want.d, want.ok)
		}
	}
}
