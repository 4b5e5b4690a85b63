// Package stats provides the small measurement and reporting utilities the
// experiment harness uses to regenerate the paper's figures and tables:
// wall-clock timers and fixed-width text rendering of result tables and
// figure series.
package stats

import (
	"fmt"
	"strings"
	"time"
)

// Timer measures wall-clock durations.
type Timer struct {
	start time.Time
}

// StartTimer begins timing.
func StartTimer() *Timer { return &Timer{start: time.Now()} }

// Elapsed returns the time since the timer started.
func (t *Timer) Elapsed() time.Duration { return time.Since(t.start) }

// Table renders aligned text tables for experiment output.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = formatDuration(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.rows {
		measure(r)
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total+2*(cols-1)))
	sb.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}

// formatDuration renders durations in the paper's "min:sec.millis" style
// for values over a minute and compact units below.
func formatDuration(d time.Duration) string {
	if d >= time.Minute {
		m := int(d / time.Minute)
		rest := d - time.Duration(m)*time.Minute
		return fmt.Sprintf("%d:%06.3f", m, rest.Seconds())
	}
	return d.Round(time.Microsecond).String()
}

// FigureSeries holds one curve of a figure: a label and (x, y) points.
type FigureSeries struct {
	Label string
	X, Y  []float64
}

// Figure is a text rendering of a paper figure: multiple curves over a
// shared x axis.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []FigureSeries
}

// String renders the figure as an aligned data listing (one row per x,
// one column per curve), the textual equivalent of the paper's plots.
func (f *Figure) String() string {
	tbl := NewTable(fmt.Sprintf("%s  [y: %s]", f.Title, f.YLabel))
	headers := []string{f.XLabel}
	for _, s := range f.Series {
		headers = append(headers, s.Label)
	}
	tbl.Headers = headers
	if len(f.Series) == 0 {
		return tbl.String()
	}
	for i := range f.Series[0].X {
		row := []interface{}{fmt.Sprintf("%g", f.Series[0].X[i])}
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf("%.3f", s.Y[i]))
			} else {
				row = append(row, "")
			}
		}
		tbl.AddRow(row...)
	}
	return tbl.String()
}
