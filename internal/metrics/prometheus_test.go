package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

func TestWritePrometheusRoundTrip(t *testing.T) {
	r := NewRegistry("node")
	r.Counter("silod_cache_hits_total", L("policy", "uniform")).Add(7)
	r.Gauge("silod_remoteio_utilization_ratio").Set(0.75)
	h := r.Histogram("silod_sim_jct_minutes", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE silod_cache_hits_total counter",
		`silod_cache_hits_total{policy="uniform"} 7`,
		"# TYPE silod_remoteio_utilization_ratio gauge",
		"silod_remoteio_utilization_ratio 0.75",
		"# TYPE silod_sim_jct_minutes histogram",
		`silod_sim_jct_minutes_bucket{le="10"} 1`,
		`silod_sim_jct_minutes_bucket{le="100"} 2`,
		`silod_sim_jct_minutes_bucket{le="+Inf"} 3`,
		"silod_sim_jct_minutes_sum 555",
		"silod_sim_jct_minutes_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus text missing %q:\n%s", want, text)
		}
	}

	samples, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]Sample)
	for _, s := range samples {
		key := s.Name
		for _, k := range []string{"policy", "le"} {
			if v, ok := s.Labels[k]; ok {
				key += "|" + k + "=" + v
			}
		}
		byKey[key] = s
	}
	if s, ok := byKey["silod_cache_hits_total|policy=uniform"]; !ok || s.Value != 7 {
		t.Errorf("parsed counter = %+v", s)
	}
	if s, ok := byKey["silod_sim_jct_minutes_bucket|le=+Inf"]; !ok || s.Value != 3 {
		t.Errorf("parsed +Inf bucket = %+v", s)
	}
	if s, ok := byKey["silod_sim_jct_minutes_count"]; !ok || s.Value != 3 {
		t.Errorf("parsed count = %+v", s)
	}
}

func TestParsePrometheusEscapes(t *testing.T) {
	text := "m{k=\"a\\\"b\\\\c\\nd\"} 1\n"
	samples, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 {
		t.Fatalf("got %d samples", len(samples))
	}
	if got := samples[0].Labels["k"]; got != "a\"b\\c\nd" {
		t.Errorf("label value = %q", got)
	}
}

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"noval",
		"m{unclosed 1",
		"m{k=unquoted} 1",
		"m{k=\"v\"} notanumber",
	} {
		if _, err := ParsePrometheus(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("accepted malformed line %q", bad)
		}
	}
}

func TestEscapedLabelValueRoundTrip(t *testing.T) {
	r := NewRegistry("t")
	r.Counter("m", L("k", "a\"b\\c\nd")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse of own output: %v\n%s", err, b.String())
	}
	if got := samples[0].Labels["k"]; got != "a\"b\\c\nd" {
		t.Errorf("round-tripped label = %q", got)
	}
}

// Sample is one parsed Prometheus text sample.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsePrometheus parses the text exposition format back into samples:
// the oracle the exposition-format tests compare WritePrometheus
// against. Comment and blank lines are skipped; histogram expansions
// come back as their _bucket/_sum/_count series.
func ParsePrometheus(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSampleLine(line string) (Sample, error) {
	s := Sample{}
	nameEnd := strings.IndexAny(line, "{ \t")
	if nameEnd < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:nameEnd]
	rest := line[nameEnd:]
	if strings.HasPrefix(rest, "{") {
		close := strings.Index(rest, "}")
		if close < 0 {
			return s, fmt.Errorf("unclosed label set in %q", line)
		}
		labels, err := parseLabelSet(rest[1:close])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[close+1:]
	}
	valStr := strings.TrimSpace(rest)
	// A trailing timestamp (which we never emit) would be a second field.
	if i := strings.IndexAny(valStr, " \t"); i >= 0 {
		valStr = valStr[:i]
	}
	v, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.Value = v
	return s, nil
}

func parseLabelSet(body string) (map[string]string, error) {
	labels := make(map[string]string)
	for len(body) > 0 {
		eq := strings.Index(body, "=")
		if eq < 0 {
			return nil, fmt.Errorf("malformed label in %q", body)
		}
		key := strings.TrimSpace(body[:eq])
		rest := body[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, fmt.Errorf("unquoted label value in %q", body)
		}
		rest = rest[1:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(rest) {
			return nil, fmt.Errorf("unterminated label value in %q", body)
		}
		labels[key] = val.String()
		body = strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), ",")
		body = strings.TrimSpace(body)
	}
	return labels, nil
}
