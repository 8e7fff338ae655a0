package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/datamgr"
	"repro/internal/dataset"
	"repro/internal/simrng"
	"repro/internal/unit"
)

// Client retry defaults: transient failures (connection errors, 5xx)
// are retried with capped exponential backoff plus jitter. Every
// request the client issues is either naturally idempotent or guarded
// by a request ID (SubmitJob), so retries are always safe.
const (
	defaultAttempts       = 3
	defaultBackoff        = 50 * time.Millisecond
	maxBackoff            = 2 * time.Second
	defaultAttemptTimeout = 5 * time.Second
	// maxRetryAfter caps how long a server Retry-After hint can hold the
	// client off: a buggy or hostile hint must not park a round forever.
	maxRetryAfter = 30 * time.Second
)

// Client talks to a DataManagerServer or SchedulerServer over HTTP. It
// implements DataPlane, so a SchedulerServer can drive a remote data
// manager transparently.
type Client struct {
	base string
	http *http.Client

	attempts int           // per-request attempt budget
	backoff  time.Duration // initial backoff, doubled per retry

	mu  sync.Mutex
	rng *simrng.RNG // guarded by mu (jitter and request IDs)
}

// NewClient returns a client for the service at base (e.g.
// "http://127.0.0.1:7070"). The jitter RNG is seeded from the base URL
// so distinct clients decorrelate while any one client stays
// deterministic.
func NewClient(base string) *Client {
	h := fnv.New64a()
	_, _ = h.Write([]byte(base)) // fnv's Write never fails
	return &Client{
		base:     base,
		http:     &http.Client{Timeout: defaultAttemptTimeout},
		attempts: defaultAttempts,
		backoff:  defaultBackoff,
		rng:      simrng.New(int64(h.Sum64())),
	}
}

// doJSON posts (or GETs, for nil body) and decodes the response into
// out when non-nil, retrying transient failures — transport errors,
// 5xx responses, and 429s that carry a Retry-After hint — with capped
// exponential backoff and jitter; a server Retry-After hint (503 under
// overload, 429 with a hint) replaces the exponential base. The
// request body is rebuilt per attempt. Other non-2xx responses decode
// the server's error and fail immediately.
func (c *Client) doJSON(method, path string, in, out any) error {
	var buf []byte
	if in != nil {
		var err error
		buf, err = json.Marshal(in)
		if err != nil {
			return fmt.Errorf("controlplane: marshal %s: %w", path, err)
		}
	}
	var lastErr error
	var hint time.Duration
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			if d := c.retryDelay(attempt, hint); d > 0 {
				<-time.After(d)
			}
		}
		retryable, retryAfter, err := c.attemptJSON(method, path, buf, out)
		if err == nil {
			return nil
		}
		lastErr, hint = err, retryAfter
		if !retryable {
			return err
		}
	}
	return fmt.Errorf("controlplane: %s %s: giving up after %d attempts: %w",
		method, path, c.attempts, lastErr)
}

// retryDelay computes the pause before retry `attempt` (1-based): the
// capped exponential base, or the server's Retry-After hint when one
// was sent (itself capped at maxRetryAfter so a bad hint cannot park
// the client), plus up to 50% seeded jitter either way so synchronized
// clients decorrelate their retry storm.
func (c *Client) retryDelay(attempt int, hint time.Duration) time.Duration {
	d := c.backoff
	if d > 0 && attempt > 1 {
		// Shifts past the cap would overflow for large attempt counts.
		if attempt > 8 {
			d = maxBackoff
		} else {
			d <<= attempt - 1
		}
	}
	if d > maxBackoff || d < 0 {
		d = maxBackoff
	}
	if hint > 0 {
		if hint > maxRetryAfter {
			hint = maxRetryAfter
		}
		d = hint
	}
	if d <= 0 {
		return 0
	}
	c.mu.Lock()
	jitter := time.Duration(c.rng.Float64() * float64(d) / 2)
	c.mu.Unlock()
	return d + jitter
}

// parseRetryAfter reads a Retry-After header in its delta-seconds form
// (the only form this control plane emits). ok distinguishes "retry
// immediately" (a valid "0") from "no hint at all" — the difference
// decides whether a 429 is retryable.
func parseRetryAfter(h string) (time.Duration, bool) {
	if h == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// attemptJSON issues one attempt; the bool reports whether the failure
// is worth retrying and the duration carries the server's Retry-After
// hint (0 when absent).
func (c *Client) attemptJSON(method, path string, body []byte, out any) (bool, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return false, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return true, 0, err // transport failure (refused, reset, timeout)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		retryAfter, hinted := parseRetryAfter(resp.Header.Get("Retry-After"))
		// 5xx is always worth retrying (503 backpressure especially); a
		// 429 only when the server said when to come back — a quota
		// rejection without a hint stays terminal so retried submits
		// don't hammer an over-quota tenant's budget.
		retryable := resp.StatusCode >= 500 ||
			(resp.StatusCode == http.StatusTooManyRequests && hinted)
		var er ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&er) == nil && er.Error != "" {
			return retryable, retryAfter, fmt.Errorf("controlplane: %s %s: %s", method, path, er.Error)
		}
		return retryable, retryAfter, fmt.Errorf("controlplane: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out != nil {
		return false, 0, json.NewDecoder(resp.Body).Decode(out)
	}
	return false, 0, nil
}

// newRequestID mints a client-unique idempotency token for a submit.
func (c *Client) newRequestID(jobID string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("%s-%016x", jobID, c.rng.Int63())
}

// RegisterDataset implements DataPlane.
func (c *Client) RegisterDataset(name string, size, blockSize unit.Bytes) error {
	return c.doJSON("POST", "/v1/datasets", RegisterDatasetRequest{Name: name, Size: size, BlockSize: blockSize}, nil)
}

// AttachJob implements DataPlane.
func (c *Client) AttachJob(jobID, dataset string) error {
	return c.doJSON("POST", "/v1/jobs", AttachJobRequest{JobID: jobID, Dataset: dataset}, nil)
}

// DetachJob implements DataPlane.
func (c *Client) DetachJob(jobID string) error {
	return c.doJSON("DELETE", "/v1/jobs/"+jobID, nil, nil)
}

// AllocateCacheSize implements DataPlane (Table 3).
func (c *Client) AllocateCacheSize(dataset string, size unit.Bytes) error {
	return c.doJSON("POST", "/v1/allocate/cache", AllocateCacheRequest{Dataset: dataset, Size: size}, nil)
}

// AllocateRemoteIO implements DataPlane (Table 3).
func (c *Client) AllocateRemoteIO(jobID string, speed unit.Bandwidth) error {
	return c.doJSON("POST", "/v1/allocate/remoteio", AllocateRemoteIORequest{JobID: jobID, Speed: speed}, nil)
}

// Read performs one block access through the data manager.
func (c *Client) Read(jobID string, block int) (ReadResponse, error) {
	var out ReadResponse
	err := c.doJSON("POST", "/v1/read", ReadRequest{JobID: jobID, Block: block}, &out)
	return out, err
}

// EpochStart marks a job's epoch boundary.
func (c *Client) EpochStart(jobID string) error {
	return c.doJSON("POST", "/v1/epoch/"+jobID, nil, nil)
}

// Stats fetches a job's counters.
func (c *Client) Stats(jobID string) (JobStatsResponse, error) {
	var out JobStatsResponse
	err := c.doJSON("GET", "/v1/stats/"+jobID, nil, &out)
	return out, err
}

// Snapshot fetches the data manager's allocation snapshot.
func (c *Client) Snapshot() (datamgr.Snapshot, error) {
	var out datamgr.Snapshot
	err := c.doJSON("GET", "/v1/snapshot", nil, &out)
	return out, err
}

// SubmitJob submits a job to a scheduler server. Submit is the one
// non-idempotent call in the API, so the client stamps a request ID
// (unless the caller set one): a retry whose first attempt landed but
// whose response was lost dedupes server-side instead of failing as a
// duplicate job.
func (c *Client) SubmitJob(req SubmitJobRequest) error {
	if req.RequestID == "" {
		req.RequestID = c.newRequestID(req.JobID)
	}
	return c.doJSON("POST", "/v1/jobs", req, nil)
}

// Nodes fetches the scheduler's node table.
func (c *Client) Nodes() ([]NodeStatus, error) {
	var out []NodeStatus
	err := c.doJSON("GET", "/v1/nodes", nil, &out)
	return out, err
}

// Tenants lists a scheduler server's registered tenants and their live
// quota usage.
func (c *Client) Tenants() ([]TenantStatus, error) {
	var out []TenantStatus
	err := c.doJSON("GET", "/v1/tenants", nil, &out)
	return out, err
}

// TriggerSchedule runs one scheduling round on a scheduler server.
func (c *Client) TriggerSchedule() error {
	return c.doJSON("POST", "/v1/schedule", nil, nil)
}

// ListJobs fetches the scheduler's job table.
func (c *Client) ListJobs() ([]JobStatus, error) {
	var out []JobStatus
	err := c.doJSON("GET", "/v1/jobs", nil, &out)
	return out, err
}

// Annotations fetches the scheduler's persisted allocations.
func (c *Client) Annotations() (Annotations, error) {
	var out Annotations
	err := c.doJSON("GET", "/v1/annotations", nil, &out)
	return out, err
}

var _ DataPlane = (*Client)(nil)

// LocalDataPlane adapts a datamgr.Manager to the DataPlane interface
// for single-process deployments (and tests).
type LocalDataPlane struct {
	Mgr *datamgr.Manager
}

// RegisterDataset implements DataPlane. A zero blockSize uses
// dataset.DefaultBlockSize, matching the HTTP server's behaviour.
func (l LocalDataPlane) RegisterDataset(name string, size, blockSize unit.Bytes) error {
	if blockSize <= 0 {
		blockSize = dataset.DefaultBlockSize
	}
	return l.Mgr.RegisterDataset(name, size, blockSize)
}

// AttachJob implements DataPlane.
func (l LocalDataPlane) AttachJob(jobID, dataset string) error {
	return l.Mgr.AttachJob(jobID, dataset)
}

// DetachJob implements DataPlane.
func (l LocalDataPlane) DetachJob(jobID string) error {
	l.Mgr.DetachJob(jobID)
	return nil
}

// AllocateCacheSize implements DataPlane.
func (l LocalDataPlane) AllocateCacheSize(dataset string, size unit.Bytes) error {
	return l.Mgr.AllocateCacheSize(dataset, size)
}

// AllocateRemoteIO implements DataPlane.
func (l LocalDataPlane) AllocateRemoteIO(jobID string, speed unit.Bandwidth) error {
	return l.Mgr.AllocateRemoteIO(jobID, speed)
}

var _ DataPlane = LocalDataPlane{}
