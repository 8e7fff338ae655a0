package controlplane

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/metrics"
	"repro/internal/tenant"
	"repro/internal/unit"
)

// DataPlane is the slice of the data manager the scheduler drives: the
// Table 3 allocation APIs plus dataset/job lifecycle. Both the local
// datamgr.Manager (via LocalDataPlane) and the HTTP Client satisfy it.
type DataPlane interface {
	RegisterDataset(name string, size, blockSize unit.Bytes) error
	AttachJob(jobID, dataset string) error
	DetachJob(jobID string) error
	AllocateCacheSize(dataset string, size unit.Bytes) error
	AllocateRemoteIO(jobID string, speed unit.Bandwidth) error
}

// schedJob is the scheduler's job record. Records never escape the
// SchedulerServer, so their mutable fields belong to its lock.
type schedJob struct {
	req       SubmitJobRequest // immutable after Submit
	slo       tenant.SLOClass  // immutable after Submit
	submitted time.Time        // immutable after Submit
	attained  unit.Bytes       // guarded by SchedulerServer.mu
	effective unit.Bytes       // guarded by SchedulerServer.mu
	cached    unit.Bytes       // guarded by SchedulerServer.mu
	running   bool             // guarded by SchedulerServer.mu
	done      bool             // guarded by SchedulerServer.mu
	gpus      int              // guarded by SchedulerServer.mu
	remoteIO  unit.Bandwidth   // guarded by SchedulerServer.mu (decided; see book.go)
	bookedIO  unit.Bandwidth   // only push touches it, under schedRound.mu (acknowledged)
}

// remaining is the work a job has left; never negative, though a
// progress report may overshoot TotalBytes.
func remaining(total, attained unit.Bytes) unit.Bytes {
	return max(0, total-attained)
}

// nodeState tracks one heartbeating node's capacity contribution.
type nodeState struct {
	gpus     int        // guarded by SchedulerServer.mu
	cache    unit.Bytes // guarded by SchedulerServer.mu
	lastSeen time.Time  // guarded by SchedulerServer.mu
	live     bool       // guarded by SchedulerServer.mu
}

// DefaultNodeLivenessTimeout is how long a node may go without a
// heartbeat before the scheduler declares it dead.
const DefaultNodeLivenessTimeout = 15 * time.Second

// SchedulerServer is the SiloD Scheduler (§6, Figure 7): it extends a
// compute-only scheduler to joint compute-storage allocation, pushing
// decisions to the data plane and persisting them as annotations.
//
// Nodes may report in via Heartbeat; once any node has registered, the
// scheduler solves each round against the effective cluster — the live
// nodes' capacity, clamped to the configured cluster — so a node death
// shrinks what the policy may grant and jobs running on lost capacity
// are preempted back to the queue. Deployments that never heartbeat
// keep the configured cluster unchanged.
type SchedulerServer struct {
	mu       sync.Mutex
	cluster  core.Cluster
	policy   core.Policy
	dp       DataPlane
	jobs     map[string]*schedJob  // guarded by mu
	active   map[string]*schedJob  // guarded by mu (attached and not done: the round's working set)
	quotas   map[string]unit.Bytes // guarded by mu (decided per-dataset cache quota; see book.go)
	requests map[string]string     // guarded by mu (submit request ID -> job ID)
	nodes    map[string]*nodeState // guarded by mu
	nodeIDs  []string              // guarded by mu (node names, kept sorted incrementally)
	liveness time.Duration         // guarded by mu (node liveness timeout)
	// Effective-cluster cache: recomputed only when a node arrives,
	// dies, revives or changes capacity, so the steady-state heartbeat
	// storm of a large cluster costs O(1) per beat.
	effValid  bool             // guarded by mu
	eff       core.Cluster     // guarded by mu (valid iff effValid)
	liveNodes int              // guarded by mu (valid iff effValid)
	clock     func() time.Time // injected; never the package-level time.Now
	epoch     time.Time        // scheduler start, for Submit timestamps
	mux       *http.ServeMux
	registry  *metrics.Registry
	met       schedMetrics
	round     schedRound // serializes rounds and revival re-pushes; owns their scratch
	// tenants and admission are nil in the untenanted (flat pool)
	// deployment; ConfigureTenants sets both before serving starts.
	tenants   *tenant.Registry
	admission *tenant.Admission
	// queue is nil in synchronous-submit mode; ConfigureAdmission sets
	// it to switch POST /v1/jobs to bounded enqueue-or-shed (serve.go).
	queue    *admission.Queue // guarded by mu
	draining bool             // guarded by mu (SIGTERM drain: new submits get 503)
}

// schedRound serializes push sequences — Schedule rounds and revival
// re-pushes, which interleaved could violate the decrease-before-raise
// order — and carries the scratch they reuse. Its mutex is deliberately
// separate from SchedulerServer.mu: it is held across the data-plane
// push, which must not block progress reports and steady heartbeats.
type schedRound struct {
	mu sync.Mutex
	sc roundScratch // guarded by mu
}

// roundScratch holds the buffers reused from round to round, mirroring
// core.Assignment.Reset: slices are truncated, not reallocated. Its
// single owner is whoever holds schedRound.mu.
type roundScratch struct {
	views []core.JobView
	// solve owns the policy call: memo, Assign and validation. Its memo
	// is what lets a round in which nothing the policy reads changed
	// (heartbeats and progress only) skip the solve.
	solve *core.Round
	// quotas and jobs are the push lists, in push order; booked is the
	// quota the data plane last accepted per dataset, never cleared.
	quotas []quotaPush
	jobs   []jobPush
	booked map[string]unit.Bytes
}

// NewSchedulerServer builds a scheduler for the cluster driving dp with
// the given policy. The clock is injected: pass time.Now at the daemon
// edge (cmd/silodd), a virtual clock everywhere a simulator or test
// drives the scheduler — this package must stay bit-deterministic
// under simulation, so it never reads the wall clock itself.
func NewSchedulerServer(cluster core.Cluster, pol core.Policy, dp DataPlane, clock func() time.Time) (*SchedulerServer, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	if pol == nil || dp == nil {
		return nil, fmt.Errorf("controlplane: scheduler needs a policy and a data plane")
	}
	if clock == nil {
		return nil, fmt.Errorf("controlplane: scheduler needs a clock (pass time.Now at the daemon edge)")
	}
	s := &SchedulerServer{
		cluster:  cluster,
		policy:   pol,
		dp:       dp,
		jobs:     make(map[string]*schedJob),
		active:   make(map[string]*schedJob),
		quotas:   make(map[string]unit.Bytes),
		requests: make(map[string]string),
		nodes:    make(map[string]*nodeState),
		liveness: DefaultNodeLivenessTimeout,
		clock:    clock,
		epoch:    clock(),
		mux:      http.NewServeMux(),
		registry: metrics.NewRegistry("scheduler"),
		round: schedRound{sc: roundScratch{
			booked: make(map[string]unit.Bytes),
			solve:  core.NewRound(pol, false),
		}},
	}
	s.met = newSchedMetrics(s.registry)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/progress", s.handleProgress)
	s.mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	s.mux.HandleFunc("POST /v1/nodes/heartbeat", s.handleHeartbeat)
	s.mux.HandleFunc("GET /v1/nodes", s.handleNodes)
	s.mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/annotations", s.handleAnnotations)
	s.mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *SchedulerServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// ConfigureTenants enables multi-tenant admission control: submissions
// must name a registered tenant and are charged against its GPU/cache
// quotas, with over-quota submissions rejected by a typed
// *tenant.OverQuotaError (HTTP 429 at the handler). Call once, before
// the server starts serving; the per-tenant admission metrics are
// interned into the scheduler's registry here.
func (s *SchedulerServer) ConfigureTenants(reg *tenant.Registry) {
	adm := tenant.NewAdmission(reg, s.registry)
	s.mu.Lock()
	s.tenants = reg
	s.admission = adm
	s.mu.Unlock()
}

// Submit registers a job and wires its dataset into the data plane.
func (s *SchedulerServer) Submit(req SubmitJobRequest) error {
	if err := req.Validate(); err != nil {
		return err
	}
	if req.NumGPUs > s.cluster.GPUs {
		return fmt.Errorf("controlplane: job %s requests %d GPUs (cluster has %d)",
			req.JobID, req.NumGPUs, s.cluster.GPUs)
	}
	s.mu.Lock()
	if req.RequestID != "" {
		if prev, seen := s.requests[req.RequestID]; seen {
			s.mu.Unlock()
			if prev == req.JobID {
				return nil // retried submit whose first attempt landed
			}
			return fmt.Errorf("controlplane: request %s already created job %s", req.RequestID, prev)
		}
	}
	if _, dup := s.jobs[req.JobID]; dup {
		s.mu.Unlock()
		return fmt.Errorf("controlplane: job %s already submitted", req.JobID)
	}
	var slo tenant.SLOClass
	if s.admission != nil {
		// Admission nests inside s.mu (always in this order) so the
		// quota check and the job-table insert are atomic: two racing
		// submits cannot both pass the same last slice of quota.
		if err := s.admission.Admit(req.Tenant, req.JobID, req.NumGPUs, req.Dataset, req.DatasetSize); err != nil {
			s.mu.Unlock()
			return err
		}
		slo = s.tenants.ClassOf(req.Tenant)
	}
	s.jobs[req.JobID] = &schedJob{req: req, slo: slo, submitted: s.clock()}
	if req.RequestID != "" {
		s.requests[req.RequestID] = req.JobID
	}
	s.mu.Unlock()
	s.met.submitted.Inc()
	// The job is in the table but not yet in the active index: rounds and
	// revival re-pushes skip it until the data plane knows it, so a
	// concurrent scheduler cannot push allocations for a job mid-attach.
	if err := s.dp.RegisterDataset(req.Dataset, req.DatasetSize, 0); err != nil {
		s.rollbackSubmit(req)
		return err
	}
	if err := s.dp.AttachJob(req.JobID, req.Dataset); err != nil {
		s.rollbackSubmit(req)
		return err
	}
	s.mu.Lock()
	if j, ok := s.jobs[req.JobID]; ok {
		s.active[req.JobID] = j
	}
	s.mu.Unlock()
	return nil
}

// rollbackSubmit undoes a submit whose data-plane wiring failed: the
// job record, its idempotency token, and its quota charge all come
// back out, so the client's retry starts from a clean slate instead of
// hitting a duplicate-job error on a half-created zombie.
func (s *SchedulerServer) rollbackSubmit(req SubmitJobRequest) {
	if err := req.Validate(); err != nil {
		return // Submit validates before creating anything to roll back
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, req.JobID) // not yet in s.active: Submit adds it after the wiring
	if req.RequestID != "" {
		delete(s.requests, req.RequestID)
	}
	if s.admission != nil {
		s.admission.Release(req.JobID)
	}
}

// Progress records a job's progress report. Reports are validated
// before they touch the job record: a negative attained-bytes counter
// would otherwise inflate RemainingBytes in every later round.
func (s *SchedulerServer) Progress(req ProgressRequest) error {
	if err := req.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[req.JobID]
	if !ok {
		return fmt.Errorf("controlplane: progress for unknown job %q", req.JobID)
	}
	j.attained = req.AttainedBytes
	j.effective = req.EffectiveCache
	j.cached = req.CachedBytes
	if req.Done && !j.done {
		j.done = true
		j.running = false
		delete(s.active, req.JobID)
		if s.admission != nil {
			// Refund the tenant's quota charge now that the job is done.
			s.admission.Release(req.JobID)
		}
	}
	return nil
}

// SetNodeLivenessTimeout changes how long a node may stay silent before
// being declared dead. Call before serving traffic (or between rounds).
func (s *SchedulerServer) SetNodeLivenessTimeout(d time.Duration) {
	if d <= 0 {
		d = DefaultNodeLivenessTimeout
	}
	s.mu.Lock()
	s.liveness = d
	s.mu.Unlock()
}

// Heartbeat registers or refreshes a node's capacity contribution. A
// node returning from the dead triggers an immediate re-push of the
// decided allocation to the data plane, so a data manager that lost
// state with the node converges without waiting for the next round.
func (s *SchedulerServer) Heartbeat(req HeartbeatRequest) error {
	if err := req.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	n, known := s.nodes[req.Node]
	if !known {
		n = &nodeState{}
		s.nodes[req.Node] = n
		// Keep the node-id order incrementally: one O(n) insert per new
		// node instead of an O(n log n) sort per effective-cluster query.
		i, _ := slices.BinarySearch(s.nodeIDs, req.Node)
		s.nodeIDs = slices.Insert(s.nodeIDs, i, req.Node)
	}
	revived := known && !n.live
	changed := !known || revived || n.gpus != req.GPUs || n.cache != req.Cache
	n.gpus = req.GPUs
	n.cache = req.Cache
	n.lastSeen = s.clock()
	n.live = true
	if changed {
		// Only a membership or capacity change moves the effective
		// cluster; the steady-state heartbeat (same node, same capacity)
		// takes the O(1) fast path and skips the gauge refresh, whose
		// values cannot have moved.
		s.effValid = false
		s.updateNodeGaugesLocked()
	}
	s.mu.Unlock()
	s.met.heartbeats.Inc()
	if !revived {
		return nil
	}
	s.met.nodeRecoveries.Inc()
	return s.repush()
}

// Nodes lists the known nodes, sorted by name.
func (s *SchedulerServer) Nodes() []NodeStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]NodeStatus, 0, len(s.nodes))
	for _, name := range s.nodeIDs {
		n := s.nodes[name]
		out = append(out, NodeStatus{
			Node:            name,
			GPUs:            n.gpus,
			Cache:           n.cache,
			LastSeenSeconds: n.lastSeen.Sub(s.epoch).Seconds(),
			Live:            n.live,
		})
	}
	return out
}

// Tenants lists the registered tenants with their quotas and live
// admission usage, sorted by ID. Empty when tenants are not configured.
func (s *SchedulerServer) Tenants() []TenantStatus {
	s.mu.Lock()
	reg, adm := s.tenants, s.admission
	s.mu.Unlock()
	if reg == nil {
		return nil
	}
	list := reg.List()
	out := make([]TenantStatus, 0, len(list))
	for _, t := range list {
		jobs, gpus, cache := adm.Usage(t.ID)
		out = append(out, TenantStatus{
			ID:          t.ID,
			Class:       t.Class.String(),
			GPUQuota:    t.Quota.GPUs,
			CacheQuota:  t.Quota.Cache,
			EgressQuota: t.Quota.Egress,
			ActiveJobs:  jobs,
			GPUsInUse:   gpus,
			CacheInUse:  cache,
		})
	}
	return out
}

// refreshLivenessLocked expires nodes whose last heartbeat is older than
// the liveness timeout. The caller holds s.mu.
func (s *SchedulerServer) refreshLivenessLocked(now time.Time) {
	for _, n := range s.nodes {
		if n.live && now.Sub(n.lastSeen) > s.liveness {
			n.live = false
			s.effValid = false
			s.met.nodeDeaths.Inc()
		}
	}
}

// effectiveClusterLocked is the capacity the policy may grant: the
// configured cluster when no node has ever registered (static
// deployments), otherwise the live nodes' total clamped to the
// configured cluster. Remote IO is a storage-fabric property, not a
// node property, so it stays configured. The result is cached and
// recomputed only after a node arrival, death, revival or capacity
// change, so the heartbeat storm of a datacenter-scale cluster never
// re-sums it. The caller holds s.mu.
func (s *SchedulerServer) effectiveClusterLocked() core.Cluster {
	if s.effValid {
		return s.eff
	}
	eff := s.cluster
	s.liveNodes = 0
	if len(s.nodes) > 0 {
		// Sorted-id sum: the cache total is a float (unit.Bytes) and
		// must not vary with per-process map iteration order. nodeIDs is
		// maintained sorted by Heartbeat, so no sort happens here.
		gpus := 0
		var cache unit.Bytes
		for _, id := range s.nodeIDs {
			if n := s.nodes[id]; n.live {
				gpus += n.gpus
				cache += n.cache
				s.liveNodes++
			}
		}
		eff.GPUs = min(eff.GPUs, gpus)
		eff.Cache = min(eff.Cache, cache)
	}
	s.eff = eff
	s.effValid = true
	return eff
}

// updateNodeGaugesLocked refreshes the node-liveness gauges. The caller
// holds s.mu.
func (s *SchedulerServer) updateNodeGaugesLocked() {
	eff := s.effectiveClusterLocked()
	s.met.nodesLive.Set(float64(s.liveNodes))
	s.met.effGPUs.Set(float64(eff.GPUs))
	s.met.effCache.Set(float64(eff.Cache))
}

// Schedule runs one allocation round against the effective cluster and
// pushes the result to the data plane. Jobs running on capacity that
// died since the last round lose their GPUs and rejoin the queue.
func (s *SchedulerServer) Schedule() error {
	return s.schedule(context.Background())
}

// schedule is the round Schedule and RunRound share, with context
// propagation through the critical section: the round checks ctx
// before taking the lock, before the policy solve, and between the push
// phases, so a round whose deadline passed releases the scheduler
// instead of finishing a doomed push sequence against a dead data
// plane.
func (s *SchedulerServer) schedule(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("controlplane: schedule round: %w", err)
	}
	s.round.mu.Lock()
	defer s.round.mu.Unlock()
	return s.scheduleRound(ctx, &s.round.sc)
}

// scheduleRound is the allocation round's hot body; the caller holds
// round.mu and passes its scratch, which the round reuses instead of
// building fresh buffers. The active index keeps every pass proportional
// to live jobs, not to everything ever submitted.
//
// silod:hotpath
func (s *SchedulerServer) scheduleRound(ctx context.Context, sc *roundScratch) error {
	s.mu.Lock()
	sc.jobs = s.activeLocked(sc.jobs)
	sc.views = sc.views[:0]
	for _, p := range sc.jobs {
		j := p.job
		sc.views = append(sc.views, core.JobView{
			ID:      p.id,
			NumGPUs: j.req.NumGPUs,
			Profile: estimator.JobProfile{
				IdealThroughput: j.req.IdealThroughput,
				DatasetSize:     j.req.DatasetSize,
			},
			DatasetKey:      j.req.Dataset,
			DatasetSize:     j.req.DatasetSize,
			RemainingBytes:  remaining(j.req.TotalBytes, j.attained),
			AttainedBytes:   j.attained,
			EffectiveCached: j.effective,
			CachedBytes:     j.cached,
			Tenant:          j.req.Tenant,
			SLO:             j.slo,
			Submit:          unit.Time(j.submitted.Sub(s.epoch).Seconds()),
			Running:         j.running,
			Irregular:       j.req.Irregular,
		})
	}
	wall := s.clock()
	s.refreshLivenessLocked(wall)
	eff := s.effectiveClusterLocked()
	s.updateNodeGaugesLocked()
	if eff.GPUs <= 0 {
		// Total compute loss: nothing can run. Preempt everything back to
		// the queue and skip the policy round (policies assume GPUs > 0);
		// allocations resume once a node heartbeats again.
		for _, j := range s.active {
			if j.running {
				j.running = false
				j.gpus = 0
				s.met.preemptions.Inc()
			}
		}
		s.met.roundDone(0, 0, len(s.active))
		s.mu.Unlock()
		return nil
	}
	if err := ctx.Err(); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("controlplane: schedule round: %w", err)
	}
	now := unit.Time(wall.Sub(s.epoch).Seconds())
	a, _, err := sc.solve.Solve(eff, now, sc.views)
	if err != nil {
		s.mu.Unlock()
		return fmt.Errorf("controlplane: policy %s: %w", s.policy.Name(), err) // silod:alloc error path
	}
	// Every active job gets an explicit entry — a job the policy dropped
	// (preempted after a node loss) must release its data-plane
	// allocation, not silently keep it.
	var runningJobs, gpusAlloc int
	clear(s.quotas)
	for i := range sc.jobs {
		p := &sc.jobs[i]
		j := p.job
		j.gpus = a.GPUs[p.id]
		if j.running && j.gpus <= 0 {
			s.met.preemptions.Inc()
		}
		j.running = j.gpus > 0
		p.speed = a.RemoteIO[p.id]
		j.remoteIO = p.speed
		s.quotas[j.req.Dataset] = a.CacheQuota[j.req.Dataset]
		if j.running {
			runningJobs++
			gpusAlloc += j.gpus
		}
	}
	sc.quotas = sortedQuotasInto(sc.quotas, s.quotas)
	s.met.roundDone(runningJobs, gpusAlloc, len(sc.jobs)-runningJobs)
	s.mu.Unlock()
	return s.push(ctx, sc)
}

// Jobs lists the scheduler's job view, sorted by ID.
func (s *SchedulerServer) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, JobStatus{
			SubmitJobRequest: j.req,
			Running:          j.running,
			GPUs:             j.gpus,
			CacheQuota:       s.quotas[j.req.Dataset],
			RemoteIO:         j.remoteIO,
			AttainedBytes:    j.attained,
			RemainingBytes:   remaining(j.req.TotalBytes, j.attained),
			Done:             j.done,
		})
	}
	slices.SortFunc(out, func(a, b JobStatus) int { return strings.Compare(a.JobID, b.JobID) })
	return out
}

func (s *SchedulerServer) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitJobRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.isDraining() {
		writeOverload(w, time.Second, fmt.Errorf(
			"controlplane: scheduler is draining for shutdown"))
		return
	}
	if s.enqueueSubmit(w, req) {
		return
	}
	if err := s.Submit(req); err != nil {
		// A quota rejection is a well-formed request the tenant may
		// retry once capacity frees up: 429, not 400. No Retry-After is
		// attached, and the HTTP client treats hint-less 429s as
		// terminal, so retried submits don't hammer an over-quota
		// tenant's budget.
		var oq *tenant.OverQuotaError
		if errors.As(err, &oq) {
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"job_id": req.JobID})
}

func (s *SchedulerServer) handleProgress(w http.ResponseWriter, r *http.Request) {
	var req ProgressRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.Progress(req); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"job_id": req.JobID})
}

func (s *SchedulerServer) handleSchedule(w http.ResponseWriter, _ *http.Request) {
	if err := s.Schedule(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "scheduled"})
}

func (s *SchedulerServer) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.Heartbeat(req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"node": req.Node})
}

func (s *SchedulerServer) handleNodes(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Nodes())
}

func (s *SchedulerServer) handleTenants(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Tenants())
}

func (s *SchedulerServer) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *SchedulerServer) handleAnnotations(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Annotations())
}
