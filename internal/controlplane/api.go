// Package controlplane provides SiloD's deployment layer — the
// substitute for the paper's Kubernetes integration (§6): a scheduler
// daemon that accepts job submissions over HTTP, runs a SiloD policy on
// a schedule, and pushes the resulting allocations to a data-manager
// service exposing the Table 3 APIs. Allocations are persisted in the
// scheduler's annotation store (the pod-annotation analogue), from
// which a restarted data manager reconstructs its state ("Fault
// tolerance", §6).
//
// Everything is stdlib net/http + encoding/json; both services are
// exercised end-to-end with httptest in the package tests and run
// standalone via cmd/silodd and cmd/silodctl.
package controlplane

import (
	"fmt"

	"repro/internal/unit"
)

// RegisterDatasetRequest declares a dataset to the data manager.
// silod:untrusted
type RegisterDatasetRequest struct {
	Name      string     `json:"name"`
	Size      unit.Bytes `json:"size"`
	BlockSize unit.Bytes `json:"block_size"`
}

// AttachJobRequest binds a job to a dataset.
// silod:untrusted
type AttachJobRequest struct {
	JobID   string `json:"job_id"`
	Dataset string `json:"dataset"`
}

// AllocateCacheRequest is Table 3's allocateCacheSize(dataset_uri,
// cache_size).
// silod:untrusted
type AllocateCacheRequest struct {
	Dataset string     `json:"dataset"`
	Size    unit.Bytes `json:"size"`
}

// AllocateRemoteIORequest is Table 3's allocateRemoteIO(job_id,
// io_speed).
// silod:untrusted
type AllocateRemoteIORequest struct {
	JobID string         `json:"job_id"`
	Speed unit.Bandwidth `json:"speed"`
}

// ReadRequest is one block access from a FUSE client.
// silod:untrusted
type ReadRequest struct {
	JobID string `json:"job_id"`
	Block int    `json:"block"`
}

// ReadResponse reports the access outcome and throttle delay.
type ReadResponse struct {
	Hit        bool  `json:"hit"`
	WaitMicros int64 `json:"wait_micros"`
}

// JobStatsResponse mirrors datamgr.JobStats over the wire.
type JobStatsResponse struct {
	Dataset         string         `json:"dataset"`
	Epoch           int            `json:"epoch"`
	EffectiveCached unit.Bytes     `json:"effective_cached"`
	AccessedBlocks  int            `json:"accessed_blocks"`
	HitBlocks       int64          `json:"hit_blocks"`
	MissBlocks      int64          `json:"miss_blocks"`
	RemoteBytes     unit.Bytes     `json:"remote_bytes"`
	RemoteIO        unit.Bandwidth `json:"remote_io"`
}

// SubmitJobRequest registers a training job with the scheduler.
// RequestID, when set, makes the submit idempotent: the scheduler
// remembers which job each request ID created, so a client retrying a
// submit whose response was lost gets success instead of a duplicate
// error. The HTTP client fills it automatically.
// silod:untrusted
type SubmitJobRequest struct {
	JobID           string         `json:"job_id"`
	Model           string         `json:"model"`
	Dataset         string         `json:"dataset"`
	DatasetSize     unit.Bytes     `json:"dataset_size"`
	NumGPUs         int            `json:"num_gpus"`
	IdealThroughput unit.Bandwidth `json:"ideal_throughput"`
	TotalBytes      unit.Bytes     `json:"total_bytes"`
	Irregular       bool           `json:"irregular,omitempty"`
	// Tenant names the submitting tenant. When the scheduler runs with
	// a tenant registry (ConfigureTenants), the tenant must be
	// registered and the submission is admission-controlled against its
	// quotas; over-quota submissions are rejected with HTTP 429.
	Tenant    string `json:"tenant,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

// HeartbeatRequest reports a node's liveness and the capacity it
// contributes to the cluster. A node that stops heartbeating past the
// liveness timeout is declared dead and its capacity leaves the
// scheduler's effective cluster until it heartbeats again.
// silod:untrusted
type HeartbeatRequest struct {
	Node  string     `json:"node"`
	GPUs  int        `json:"gpus"`
	Cache unit.Bytes `json:"cache,omitempty"`
}

// NodeStatus is the scheduler's view of one node, returned by
// GET /v1/nodes.
type NodeStatus struct {
	Node            string     `json:"node"`
	GPUs            int        `json:"gpus"`
	Cache           unit.Bytes `json:"cache"`
	LastSeenSeconds float64    `json:"last_seen_seconds"` // since scheduler start
	Live            bool       `json:"live"`
}

// TenantStatus is the scheduler's view of one tenant, returned by
// GET /v1/tenants: the registered quotas (zero means unlimited) next to
// the admission controller's live usage.
type TenantStatus struct {
	ID          string         `json:"id"`
	Class       string         `json:"class"`
	GPUQuota    int            `json:"gpu_quota,omitempty"`
	CacheQuota  unit.Bytes     `json:"cache_quota,omitempty"`
	EgressQuota unit.Bandwidth `json:"egress_quota,omitempty"`
	ActiveJobs  int            `json:"active_jobs"`
	GPUsInUse   int            `json:"gpus_in_use"`
	CacheInUse  unit.Bytes     `json:"cache_in_use"`
}

// ProgressRequest reports a job's training progress (the scheduler
// monitors progress "via data access requests", §6).
// silod:untrusted
type ProgressRequest struct {
	JobID          string     `json:"job_id"`
	AttainedBytes  unit.Bytes `json:"attained_bytes"`
	EffectiveCache unit.Bytes `json:"effective_cache"`
	CachedBytes    unit.Bytes `json:"cached_bytes"`
	Done           bool       `json:"done,omitempty"`
}

// JobStatus is the scheduler's view of a job, returned by GET /jobs.
type JobStatus struct {
	SubmitJobRequest
	Running        bool           `json:"running"`
	GPUs           int            `json:"gpus"`
	CacheQuota     unit.Bytes     `json:"cache_quota"`
	RemoteIO       unit.Bandwidth `json:"remote_io"`
	AttainedBytes  unit.Bytes     `json:"attained_bytes"`
	RemainingBytes unit.Bytes     `json:"remaining_bytes"`
	Done           bool           `json:"done"`
}

// ErrorResponse carries an error over the wire.
type ErrorResponse struct {
	Error string `json:"error"`
}

// The Validate methods below are the admission boundary for every
// wire-decoded request: each handler calls Validate before any field
// reaches capacity accounting, allocation sizing or the data plane.
// They check what is knowable from the request alone; context-dependent
// checks (cluster size, registered tenants) stay with the server.

// Validate rejects malformed dataset registrations.
// silod:validator
func (r *RegisterDatasetRequest) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("controlplane: register needs a dataset name")
	}
	if r.Size <= 0 {
		return fmt.Errorf("controlplane: dataset %s has non-positive size %v", r.Name, r.Size)
	}
	if r.BlockSize < 0 {
		return fmt.Errorf("controlplane: dataset %s has negative block size %v", r.Name, r.BlockSize)
	}
	return nil
}

// Validate rejects malformed job attachments.
// silod:validator
func (r *AttachJobRequest) Validate() error {
	if r.JobID == "" || r.Dataset == "" {
		return fmt.Errorf("controlplane: attach needs job_id and dataset")
	}
	return nil
}

// Validate rejects malformed cache allocations.
// silod:validator
func (r *AllocateCacheRequest) Validate() error {
	if r.Dataset == "" {
		return fmt.Errorf("controlplane: cache allocation needs a dataset")
	}
	if r.Size < 0 {
		return fmt.Errorf("controlplane: dataset %s allocated negative cache %v", r.Dataset, r.Size)
	}
	return nil
}

// Validate rejects malformed remote-IO allocations.
// silod:validator
func (r *AllocateRemoteIORequest) Validate() error {
	if r.JobID == "" {
		return fmt.Errorf("controlplane: remote-IO allocation needs a job_id")
	}
	if r.Speed < 0 {
		return fmt.Errorf("controlplane: job %s allocated negative remote IO %v", r.JobID, r.Speed)
	}
	return nil
}

// Validate rejects malformed block reads.
// silod:validator
func (r *ReadRequest) Validate() error {
	if r.JobID == "" {
		return fmt.Errorf("controlplane: read needs a job_id")
	}
	if r.Block < 0 {
		return fmt.Errorf("controlplane: job %s reads negative block %d", r.JobID, r.Block)
	}
	return nil
}

// Validate rejects submissions that are malformed independent of the
// cluster; the scheduler additionally bounds NumGPUs by cluster size.
// silod:validator
func (r *SubmitJobRequest) Validate() error {
	if r.JobID == "" || r.Dataset == "" {
		return fmt.Errorf("controlplane: submit needs job_id and dataset")
	}
	if r.NumGPUs <= 0 {
		return fmt.Errorf("controlplane: job %s requests %d GPUs", r.JobID, r.NumGPUs)
	}
	if r.DatasetSize <= 0 || r.IdealThroughput <= 0 || r.TotalBytes <= 0 {
		return fmt.Errorf("controlplane: job %s has incomplete profile", r.JobID)
	}
	return nil
}

// Validate rejects malformed heartbeats.
// silod:validator
func (r *HeartbeatRequest) Validate() error {
	if r.Node == "" {
		return fmt.Errorf("controlplane: heartbeat needs a node name")
	}
	if r.GPUs < 0 || r.Cache < 0 {
		return fmt.Errorf("controlplane: node %s heartbeats negative capacity", r.Node)
	}
	return nil
}

// Validate rejects malformed progress reports: a negative counter would
// inflate RemainingBytes (TotalBytes - attained) and skew every later
// scheduling round, so it must not reach the job record.
// silod:validator
func (r *ProgressRequest) Validate() error {
	if r.JobID == "" {
		return fmt.Errorf("controlplane: progress needs a job_id")
	}
	if r.AttainedBytes < 0 || r.EffectiveCache < 0 || r.CachedBytes < 0 {
		return fmt.Errorf("controlplane: job %s reports negative progress (attained %v, effective %v, cached %v)",
			r.JobID, r.AttainedBytes, r.EffectiveCache, r.CachedBytes)
	}
	return nil
}
