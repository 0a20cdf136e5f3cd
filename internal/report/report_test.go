package report

import (
	"strings"
	"testing"
)

func TestTableRenderAlignment(t *testing.T) {
	tb := NewTable("My Title", "Name", "Value")
	tb.AddRow("short", "1")
	tb.AddRow("a-much-longer-name", "22")
	out := tb.String()
	if !strings.HasPrefix(out, "My Title\n") {
		t.Errorf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines: %q", len(lines), out)
	}
	// The "Value" column starts at the same offset on every row.
	idx := strings.Index(lines[1], "Value")
	for _, line := range lines[3:] {
		tail := strings.TrimSpace(line[idx:])
		if tail != "1" && tail != "22" {
			t.Errorf("misaligned row: %q", line)
		}
	}
}

func TestTableShortRowsPadded(t *testing.T) {
	tb := NewTable("", "A", "B", "C")
	tb.AddRow("x")
	out := tb.String()
	if !strings.Contains(out, "x") {
		t.Error("row missing")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("ignored", "a", "b")
	tb.AddRow("plain", `with "quote", and comma`)
	var sb strings.Builder
	if err := tb.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\nplain,\"with \"\"quote\"\", and comma\"\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestBarChartRender(t *testing.T) {
	c := NewBarChart("Chart")
	c.RefLabel = "deadline"
	c.RefValue = 100
	c.Add("under", 50, "")
	c.Gap()
	c.Add("over", 150, " (!)")
	out := c.String()
	if !strings.Contains(out, "Chart") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "deadline = 100") {
		t.Errorf("missing reference annotation: %q", out)
	}
	if !strings.Contains(out, "150 (!)") {
		t.Errorf("missing marker: %q", out)
	}
	// The under bar must be shorter than the over bar.
	var underHashes, overHashes int
	for _, line := range strings.Split(out, "\n") {
		n := strings.Count(line, "#")
		if strings.HasPrefix(line, "under") {
			underHashes = n
		}
		if strings.HasPrefix(line, "over") {
			overHashes = n
		}
	}
	if underHashes == 0 || overHashes == 0 || underHashes >= overHashes {
		t.Errorf("bar lengths wrong: under=%d over=%d", underHashes, overHashes)
	}
	// Gap inserted a blank line.
	if !strings.Contains(out, "\n\n") {
		t.Error("missing group gap")
	}
}

func TestBarChartEmpty(t *testing.T) {
	c := NewBarChart("Empty")
	if out := c.String(); !strings.Contains(out, "no data") {
		t.Errorf("empty chart = %q", out)
	}
}

func TestBarChartScalesToWidth(t *testing.T) {
	c := NewBarChart("W")
	c.Width = 10
	c.Add("x", 1000, "")
	out := c.String()
	for _, line := range strings.Split(out, "\n") {
		if strings.Count(line, "#") > 10 {
			t.Errorf("bar exceeds width: %q", line)
		}
	}
}

func TestHistogramChart(t *testing.T) {
	sample := make([]float64, 0, 300)
	for i := 0; i < 200; i++ {
		sample = append(sample, 100+float64(i%10))
	}
	for i := 0; i < 100; i++ {
		sample = append(sample, 150+float64(i%5))
	}
	h := NewHistogramChart("Makespans", sample)
	h.MarkLabel = "deadline"
	h.MarkValue = 140
	out := h.String()
	if !strings.Contains(out, "Makespans") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "#") {
		t.Error("no bars rendered")
	}
	if !strings.Contains(out, "deadline = 140") {
		t.Errorf("missing marker note:\n%s", out)
	}
	// Axis shows range endpoints.
	if !strings.Contains(out, "100") {
		t.Errorf("missing lower bound:\n%s", out)
	}
}

func TestHistogramChartEmpty(t *testing.T) {
	h := NewHistogramChart("none", nil)
	if out := h.String(); !strings.Contains(out, "no data") {
		t.Errorf("empty = %q", out)
	}
}
