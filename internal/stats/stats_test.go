package stats

import (
	"strings"
	"testing"
	"time"
)

func TestTimer(t *testing.T) {
	tm := StartTimer()
	if tm.Elapsed() < 0 {
		t.Fatal("negative elapsed")
	}
}

func TestTable(t *testing.T) {
	tbl := NewTable("Title", "col1", "column2", "c3")
	tbl.AddRow("a", 1.23456, 42)
	tbl.AddRow("longer cell", time.Duration(1500)*time.Millisecond, "x")
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	out := tbl.String()
	if !strings.Contains(out, "Title") || !strings.Contains(out, "col1") {
		t.Fatalf("render: %q", out)
	}
	if !strings.Contains(out, "1.235") {
		t.Fatalf("float formatting: %q", out)
	}
	if !strings.Contains(out, "1.5s") {
		t.Fatalf("duration formatting: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("line count %d: %q", len(lines), out)
	}
}

func TestTableDurationMinutes(t *testing.T) {
	tbl := NewTable("", "d")
	tbl.AddRow(2*time.Minute + 31*time.Second + 217*time.Millisecond)
	if !strings.Contains(tbl.String(), "2:31.217") {
		t.Fatalf("paper-style duration: %q", tbl.String())
	}
}

func TestFigure(t *testing.T) {
	fig := Figure{
		Title:  "Figure 8",
		XLabel: "Sequence Length",
		YLabel: "time (ms)",
		Series: []FigureSeries{
			{Label: "with transform", X: []float64{64, 128}, Y: []float64{1.5, 2.5}},
			{Label: "without", X: []float64{64, 128}, Y: []float64{1.2, 2.2}},
		},
	}
	out := fig.String()
	for _, want := range []string{"Figure 8", "Sequence Length", "with transform", "64", "2.500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure render missing %q:\n%s", want, out)
		}
	}
	empty := Figure{Title: "x"}
	if empty.String() == "" {
		t.Fatal("empty figure should render header")
	}
}
