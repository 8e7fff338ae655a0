package controlplane

import (
	"math"
	"testing"

	"repro/internal/unit"
)

// TestValidateRejectsNonFinite: every float field a validator bounds
// rejects NaN and ±Inf, which pass a bare `< 0` or `<= 0` check (NaN)
// or a sign check (+Inf). JSON cannot carry them; in-process callers
// can.
func TestValidateRejectsNonFinite(t *testing.T) {
	type validator interface{ Validate() error }
	cases := []struct {
		field string
		req   func(x float64) validator
	}{
		{"RegisterDatasetRequest.Size", func(x float64) validator {
			return &RegisterDatasetRequest{Name: "d", Size: unit.Bytes(x)}
		}},
		{"RegisterDatasetRequest.BlockSize", func(x float64) validator {
			return &RegisterDatasetRequest{Name: "d", Size: unit.GiB(1), BlockSize: unit.Bytes(x)}
		}},
		{"AllocateCacheRequest.Size", func(x float64) validator {
			return &AllocateCacheRequest{Dataset: "d", Size: unit.Bytes(x)}
		}},
		{"AllocateRemoteIORequest.Speed", func(x float64) validator {
			return &AllocateRemoteIORequest{JobID: "j", Speed: unit.Bandwidth(x)}
		}},
		{"SubmitJobRequest.DatasetSize", func(x float64) validator {
			r := submitReq("j", 1, unit.GiB(1))
			r.DatasetSize = unit.Bytes(x)
			return &r
		}},
		{"SubmitJobRequest.IdealThroughput", func(x float64) validator {
			r := submitReq("j", 1, unit.GiB(1))
			r.IdealThroughput = unit.Bandwidth(x)
			return &r
		}},
		{"SubmitJobRequest.TotalBytes", func(x float64) validator {
			r := submitReq("j", 1, unit.GiB(1))
			r.TotalBytes = unit.Bytes(x)
			return &r
		}},
		{"HeartbeatRequest.Cache", func(x float64) validator {
			return &HeartbeatRequest{Node: "n", GPUs: 1, Cache: unit.Bytes(x)}
		}},
		{"ProgressRequest.AttainedBytes", func(x float64) validator {
			return &ProgressRequest{JobID: "j", AttainedBytes: unit.Bytes(x)}
		}},
		{"ProgressRequest.EffectiveCache", func(x float64) validator {
			return &ProgressRequest{JobID: "j", EffectiveCache: unit.Bytes(x)}
		}},
		{"ProgressRequest.CachedBytes", func(x float64) validator {
			return &ProgressRequest{JobID: "j", CachedBytes: unit.Bytes(x)}
		}},
	}
	for _, c := range cases {
		if err := c.req(1).Validate(); err != nil {
			t.Errorf("%s = 1 rejected: %v", c.field, err)
		}
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if err := c.req(x).Validate(); err == nil {
				t.Errorf("%s = %v accepted", c.field, x)
			}
		}
	}
}
