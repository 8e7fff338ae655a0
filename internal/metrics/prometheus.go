package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one "# TYPE" header per family, series sorted
// deterministically, histograms expanded into cumulative _bucket series
// plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	bw := bufio.NewWriter(w)
	lastName := ""
	for _, m := range snap.Metrics {
		if m.Name != lastName {
			fmt.Fprintf(bw, "# TYPE %s %s\n", m.Name, m.Type)
			lastName = m.Name
		}
		switch m.Type {
		case "histogram":
			for _, b := range m.Buckets {
				fmt.Fprintf(bw, "%s_bucket%s %d\n", m.Name, formatLabels(m.Labels, "le", b.LE), b.Count)
			}
			fmt.Fprintf(bw, "%s_sum%s %s\n", m.Name, formatLabels(m.Labels, "", ""), formatValue(m.Sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", m.Name, formatLabels(m.Labels, "", ""), m.Count)
		default:
			fmt.Fprintf(bw, "%s%s %s\n", m.Name, formatLabels(m.Labels, "", ""), formatValue(*m.Value))
		}
	}
	return bw.Flush()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatLabels renders {k="v",...}; extraKey/extraVal append one more
// pair (the histogram "le" label). Returns "" for an empty set.
func formatLabels(labels map[string]string, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	first := true
	add := func(k, v string) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(v))
		b.WriteByte('"')
	}
	for _, k := range keys {
		add(k, labels[k])
	}
	if extraKey != "" {
		add(extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}
