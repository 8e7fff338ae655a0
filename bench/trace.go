package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index
// of the span that caused it (-1 for none); spans of one pass, round or
// request share a TraceID. N is how many calls a batch span covers
// (the 30 000 ingest calls of a cp round are three spans, not 30 000).
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	TraceID int    `json:"trace_id"`
	N       int    `json:"n,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op, so workload code calls it
// unconditionally and the untraced run pays one nil check per boundary.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span // guarded by mu
	traces int    // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newTrace allocates a trace identifier.
func (t *tracer) newTrace() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces - 1
}

// begin opens a span now and returns its index. Through tracedPolicy
// this clock read sits under the simulation roots; it is the measuring
// instrument and never reaches a policy's inputs or outputs, which
// every traced run proves by reproducing the untraced run's simulated
// statistics bit for bit.
//
// silod:inject wallclock
func (t *tracer) begin(name string, parent, trace int) int {
	if t == nil {
		return -1
	}
	return t.add(name, parent, trace, time.Now(), time.Time{}, 0)
}

// end closes span id now; n > 0 records a batch size. An audited clock
// read like begin's.
//
// silod:inject wallclock
func (t *tracer) end(id, n int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].N = n
	t.mu.Unlock()
}

// add records a span from timestamps the caller already took (client
// send/response times, the sink's first and last push of a round). A
// zero end leaves the span open for end.
func (t *tracer) add(name string, parent, trace int, start, end time.Time, n int) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, Start: start.Sub(t.epoch).Nanoseconds(), Parent: parent, TraceID: trace, N: n}
	if !end.IsZero() {
		s.End = end.Sub(t.epoch).Nanoseconds()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// snapshot returns the recorded spans; call it once every goroutine
// that records has stopped.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// byName returns the durations (seconds) of every span called name.
func byName(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// perCall is the total time of the batch spans called name divided by
// the calls they cover, in seconds, with the call count.
func perCall(spans []span, name string) (float64, int) {
	var total float64
	var calls int
	for _, s := range spans {
		if s.Name == name {
			total += s.seconds()
			calls += s.N
		}
	}
	return ratio(total, float64(calls)), calls
}

// selfTimes returns each span's self time in seconds: its duration
// minus the part of that interval its child spans of the same trace
// cover (overlapping children are counted once).
func selfTimes(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].TraceID == s.TraceID {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// selfByName sums self time (seconds) over the spans called name.
func selfByName(spans []span, self []float64, name string) float64 {
	var total float64
	for i, s := range spans {
		if s.Name == name {
			total += self[i]
		}
	}
	return total
}

// checkSpans verifies the trace is well formed: every span is closed,
// every parent resolves to an enclosing earlier span, and within each
// trace the self times sum to the root span's duration within 1 %. The
// root of a trace is its span whose parent lies in another trace (or
// nowhere); a pass fans its arms out as traces of their own, so
// parallel arms never share one.
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) never ended", i, s.Name)
		}
		if s.Parent >= i || s.Parent < -1 {
			return fmt.Errorf("span %d (%s) has unresolved parent %d", i, s.Name, s.Parent)
		}
	}
	self := selfTimes(spans)
	type acc struct {
		root    int
		selfSum float64
	}
	traces := make(map[int]*acc)
	for i, s := range spans {
		a := traces[s.TraceID]
		if a == nil {
			a = &acc{root: -1}
			traces[s.TraceID] = a
		}
		a.selfSum += self[i]
		if s.Parent < 0 || spans[s.Parent].TraceID != s.TraceID {
			if a.root >= 0 {
				return fmt.Errorf("trace %d has two roots (%s, %s)", s.TraceID, spans[a.root].Name, s.Name)
			}
			a.root = i
		}
	}
	ids := make([]int, 0, len(traces))
	for id := range traces {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		a := traces[id]
		if a.root < 0 {
			return fmt.Errorf("trace %d has no root", id)
		}
		root := spans[a.root].seconds()
		if diff := a.selfSum - root; diff > 0.01*root || diff < -0.01*root {
			return fmt.Errorf("trace %d (%s): self times sum to %.9fs, root lasts %.9fs",
				id, spans[a.root].Name, a.selfSum, root)
		}
	}
	return nil
}

// writeSpans writes the spans to <dir>/trace-<workload>.json.
func writeSpans(dir, workload string, spans []span) (rerr error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && rerr == nil {
			rerr = cerr
		}
	}()
	return json.NewEncoder(f).Encode(spans)
}
