package controlplane

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/datamgr"
	"repro/internal/dataset"
)

// DataManagerServer exposes a datamgr.Manager over HTTP: the Table 3
// allocation APIs for the scheduler, block reads for FUSE clients, and
// snapshot/restore for crash recovery.
type DataManagerServer struct {
	mgr *datamgr.Manager
	mux *http.ServeMux
}

// NewDataManagerServer wraps mgr.
func NewDataManagerServer(mgr *datamgr.Manager) *DataManagerServer {
	s := &DataManagerServer{mgr: mgr, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/datasets", s.handleRegisterDataset)
	s.mux.HandleFunc("POST /v1/jobs", s.handleAttachJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDetachJob)
	s.mux.HandleFunc("POST /v1/allocate/cache", s.handleAllocateCache)
	s.mux.HandleFunc("POST /v1/allocate/remoteio", s.handleAllocateRemoteIO)
	s.mux.HandleFunc("POST /v1/read", s.handleRead)
	s.mux.HandleFunc("POST /v1/epoch/{id}", s.handleEpochStart)
	s.mux.HandleFunc("GET /v1/stats/{id}", s.handleStats)
	s.mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /v1/restore", s.handleRestore)
	s.mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *DataManagerServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes an ErrorResponse.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// decode parses the request body into v.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("controlplane: bad request body: %w", err)
	}
	return nil
}

func (s *DataManagerServer) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	var req RegisterDatasetRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	bs := req.BlockSize
	if bs <= 0 {
		bs = dataset.DefaultBlockSize
	}
	if err := s.mgr.RegisterDataset(req.Name, req.Size, bs); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"name": req.Name})
}

func (s *DataManagerServer) handleAttachJob(w http.ResponseWriter, r *http.Request) {
	var req AttachJobRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.mgr.AttachJob(req.JobID, req.Dataset); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"job_id": req.JobID})
}

func (s *DataManagerServer) handleDetachJob(w http.ResponseWriter, r *http.Request) {
	s.mgr.DetachJob(r.PathValue("id"))
	writeJSON(w, http.StatusOK, map[string]string{"job_id": r.PathValue("id")})
}

func (s *DataManagerServer) handleAllocateCache(w http.ResponseWriter, r *http.Request) {
	var req AllocateCacheRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.mgr.AllocateCacheSize(req.Dataset, req.Size); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"dataset": req.Dataset})
}

func (s *DataManagerServer) handleAllocateRemoteIO(w http.ResponseWriter, r *http.Request) {
	var req AllocateRemoteIORequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.mgr.AllocateRemoteIO(req.JobID, req.Speed); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"job_id": req.JobID})
}

func (s *DataManagerServer) handleRead(w http.ResponseWriter, r *http.Request) {
	var req ReadRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.mgr.Read(req.JobID, req.Block)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, ReadResponse{Hit: res.Hit, WaitMicros: res.Wait.Microseconds()})
}

func (s *DataManagerServer) handleEpochStart(w http.ResponseWriter, r *http.Request) {
	if err := s.mgr.EpochStart(r.PathValue("id")); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"job_id": r.PathValue("id")})
}

func (s *DataManagerServer) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Stats(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, JobStatsResponse{
		Dataset:         st.Dataset,
		Epoch:           st.Epoch,
		EffectiveCached: st.EffectiveCached,
		AccessedBlocks:  st.AccessedBlocks,
		HitBlocks:       st.HitBlocks,
		MissBlocks:      st.MissBlocks,
		RemoteBytes:     st.RemoteBytes,
		RemoteIO:        st.RemoteIO,
	})
}

func (s *DataManagerServer) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Snapshot())
}

func (s *DataManagerServer) handleRestore(w http.ResponseWriter, r *http.Request) {
	var snap datamgr.Snapshot
	if err := decode(r, &snap); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.mgr.Restore(snap); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "restored"})
}
