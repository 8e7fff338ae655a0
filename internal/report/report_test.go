package report

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "Name", "Value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 3.14159)
	out := tb.String()
	for _, want := range []string{"== demo ==", "Name", "Value", "alpha", "3.14"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Errorf("line count %d:\n%s", len(lines), out)
	}
	// Columns align: every data line has the value column at the same
	// offset as the header's.
	headerIdx := strings.Index(lines[1], "Value")
	if idx := strings.Index(lines[3], "1"); idx != headerIdx {
		t.Errorf("column misaligned: %d vs %d\n%s", idx, headerIdx, out)
	}
	if len(tb.rows) != 2 {
		t.Error("rows")
	}
}

func TestTableRowShaping(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.AddRow("only-a")          // short row pads
	tb.AddRow("a", "b", "extra") // long row truncates
	out := tb.String()
	if strings.Contains(out, "extra") {
		t.Error("extra cell not dropped")
	}
	if !strings.Contains(out, "only-a") {
		t.Error("short row lost")
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	s := &stats.Series{Name: "tput"}
	s.Append(1, 100)
	s.Append(2, 200)
	var b strings.Builder
	if err := WriteSeriesCSV(&b, s); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "series,time,value\n") {
		t.Errorf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "tput,1.0000,100.000000") {
		t.Errorf("row missing:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != 3 {
		t.Errorf("%d lines", got)
	}
}

func TestRenderSeries(t *testing.T) {
	s := &stats.Series{Name: "x"}
	for i := 0; i < 100; i++ {
		s.Append(float64(i), float64(i))
	}
	var b strings.Builder
	RenderSeries(&b, s, 5)
	out := b.String()
	if !strings.Contains(out, "series x") || strings.Count(out, "t=") != 5 {
		t.Errorf("render:\n%s", out)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(200, 100); got != "2.00x" {
		t.Errorf("Speedup = %q", got)
	}
	if got := Speedup(1, 0); got != "inf" {
		t.Errorf("Speedup by zero = %q", got)
	}
}
