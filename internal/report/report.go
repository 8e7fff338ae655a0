// Package report renders experiment results as aligned ASCII tables and
// CSV series, the formats the benchmark harness prints when
// regenerating the paper's tables and figures.
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/stats"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells beyond the column count are dropped and
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values: each value is rendered
// with %v, floats with 2 decimals.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, fmt.Sprintf("%.2f", v))
		case float32:
			row = append(row, fmt.Sprintf("%.2f", v))
		default:
			row = append(row, fmt.Sprintf("%v", v))
		}
	}
	t.AddRow(row...)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// WriteSeriesCSV writes one or more series sharing no time base as CSV:
// name,time,value per row.
func WriteSeriesCSV(w io.Writer, series ...*stats.Series) error {
	if _, err := fmt.Fprintln(w, "series,time,value"); err != nil {
		return err
	}
	for _, s := range series {
		for i := 0; i < s.Len(); i++ {
			t, v := s.At(i)
			if _, err := fmt.Fprintf(w, "%s,%.4f,%.6f\n", s.Name, t, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// RenderSeries prints a compact textual sketch of a series: up to n
// evenly spaced (time, value) samples on one line each.
func RenderSeries(w io.Writer, s *stats.Series, n int) {
	ds := s.Downsample(n)
	fmt.Fprintf(w, "-- series %s (%d points, showing %d) --\n", s.Name, s.Len(), ds.Len())
	for i := 0; i < ds.Len(); i++ {
		t, v := ds.At(i)
		fmt.Fprintf(w, "  t=%10.1f  v=%12.3f\n", t, v)
	}
}

// Speedup formats a baseline/improved ratio the way the paper quotes it
// ("2.16x").
func Speedup(baseline, improved float64) string {
	if improved <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", baseline/improved)
}
