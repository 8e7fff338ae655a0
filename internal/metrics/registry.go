package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one key=value dimension of a metric series. Labels must be
// low-cardinality (policy names, engine names, dataset classes — never
// job IDs or block numbers); see docs/observability.md.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// silod:enum
type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// series is one (name, labels) instance of a metric family.
type series struct {
	labels []Label // sorted by key
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the series of one metric name.
type family struct {
	name   string
	typ    metricType
	bounds []float64 // histogram families only
	series map[string]*series
}

// Registry is a named collection of metrics. Registration
// (Counter/Gauge/Histogram) interns a handle: the first call for a
// (name, labels) pair creates the series, subsequent calls return the
// same handle, and all increments on the handle are lock-free. A nil
// Registry returns nil handles, which no-op, so components can be
// instrumented unconditionally and pay nothing until a registry is
// wired in.
type Registry struct {
	name     string
	mu       sync.RWMutex
	families map[string]*family // guarded by mu
}

// NewRegistry returns an empty registry with the given name.
func NewRegistry(name string) *Registry {
	return &Registry{name: name, families: make(map[string]*family)}
}

// labelKey fingerprints a sorted label set.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(0xff)
		}
		b.WriteString(l.Key)
		b.WriteByte(0xfe)
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortedLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// register interns (creating if needed) the series for name+labels.
// Registering an existing name with a different type or histogram
// geometry panics: that is a programming error that would silently
// corrupt exported data, the same contract cache.Pool.Register enforces
// with errors on its (fallible, user-driven) path.
func (r *Registry) register(name string, typ metricType, bounds []float64, labels []Label) *series {
	ls := sortedLabels(labels)
	key := labelKey(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, typ: typ, bounds: append([]float64(nil), bounds...), series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	if typ == typeHistogram && !equalBounds(f.bounds, bounds) {
		panic(fmt.Sprintf("metrics: histogram %q re-registered with different buckets", name))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: ls}
		switch typ {
		case typeCounter:
			s.c = &Counter{}
		case typeGauge:
			s.g = &Gauge{}
		case typeHistogram:
			s.h = newHistogram(bounds)
		}
		f.series[key] = s
	}
	return s
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter interns and returns the counter for name+labels. Nil registry
// returns nil (a no-op handle).
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, typeCounter, nil, labels).c
}

// Gauge interns and returns the gauge for name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, typeGauge, nil, labels).g
}

// Histogram interns and returns the histogram for name+labels. All
// series of one name share the same bucket bounds; re-registering with
// different bounds panics.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, typeHistogram, bounds, labels).h
}

// Snapshot is a point-in-time, JSON-serializable export of a registry.
type Snapshot struct {
	Registry string           `json:"registry,omitempty"`
	Metrics  []MetricSnapshot `json:"metrics"`
}

// MetricSnapshot is one exported series.
type MetricSnapshot struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value carries the counter or gauge value; nil for histograms.
	Value *float64 `json:"value,omitempty"`
	// Histogram fields. Buckets are cumulative with "le" upper bounds
	// rendered as strings ("+Inf" for the overflow bucket) because JSON
	// has no infinity literal.
	Count   int64    `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// FormatBound renders a bucket upper bound the way snapshots and the
// Prometheus text format expect.
func FormatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// Snapshot exports every series in deterministic order (metric name,
// then label fingerprint). Safe to call concurrently with updates:
// values are read atomically, though not as one consistent cut.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := Snapshot{Registry: r.name}
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := r.families[n]
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			m := MetricSnapshot{Name: f.name, Type: f.typ.String()}
			if len(s.labels) > 0 {
				m.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					m.Labels[l.Key] = l.Value
				}
			}
			switch f.typ {
			case typeCounter:
				v := float64(s.c.Value())
				m.Value = &v
			case typeGauge:
				v := s.g.Value()
				m.Value = &v
			case typeHistogram:
				m.Count = s.h.Count()
				m.Sum = s.h.Sum()
				cum := s.h.cumulative()
				m.Buckets = make([]Bucket, len(cum))
				for i, c := range cum {
					le := "+Inf"
					if i < len(s.h.bounds) {
						le = FormatBound(s.h.bounds[i])
					}
					m.Buckets[i] = Bucket{LE: le, Count: c}
				}
			}
			snap.Metrics = append(snap.Metrics, m)
		}
	}
	return snap
}

// Get returns the snapshot of one series by name and labels, or false
// if it is not registered — the lookup tests and the report bridge use.
func (s Snapshot) Get(name string, labels map[string]string) (MetricSnapshot, bool) {
	for _, m := range s.Metrics {
		if m.Name != name {
			continue
		}
		if len(m.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if m.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return m, true
		}
	}
	return MetricSnapshot{}, false
}

// CounterValue returns the value of a counter/gauge series, or 0 if
// absent — convenience for assertions and bridges.
func (s Snapshot) CounterValue(name string, labels map[string]string) float64 {
	m, ok := s.Get(name, labels)
	if !ok || m.Value == nil {
		return 0
	}
	return *m.Value
}
