package report

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

func smallSeries(t *testing.T) []sweep.Series {
	t.Helper()
	base := core.DefaultConfig(core.NPNB)
	base.Boards = 4
	base.NodesPerBoard = 4
	base.Window = 500
	base.WarmupCycles = 1000
	base.MeasureCycles = 1000
	base.DrainLimitCycles = 20000
	series, err := sweep.RunContext(context.Background(), sweep.Request{
		Base:     base,
		Patterns: []string{traffic.Uniform},
		Modes:    []core.Mode{core.NPNB, core.PB},
		Loads:    []float64{0.2, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return series
}

func TestTable1Rendering(t *testing.T) {
	var b strings.Builder
	Table1(&b)
	out := b.String()
	for _, want := range []string{
		"16 bits", "400 MHz", "6.4 Gbps", "64 bytes",
		"2.5 / 3.3 / 5 Gbps", "65 cycles", "2000 cycles",
		"8.60", "26.00", "43.03", "VCSEL driver", "TIA", "CDR",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q", want)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	series := smallSeries(t)
	var b strings.Builder
	if err := WriteCSV(&b, series); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	// Header + 2 series × 2 loads.
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want 5:\n%s", len(lines), b.String())
	}
	if !strings.HasPrefix(lines[0], "pattern,mode,load") {
		t.Fatalf("CSV header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if got := strings.Count(l, ","); got != strings.Count(lines[0], ",") {
			t.Fatalf("CSV row has %d commas, header has %d: %q", got, strings.Count(lines[0], ","), l)
		}
	}
	if !strings.Contains(b.String(), "uniform,NP-NB,0.200") {
		t.Fatalf("CSV missing expected row:\n%s", b.String())
	}
}

func TestChartRendering(t *testing.T) {
	series := smallSeries(t)
	var b strings.Builder
	for _, m := range Metrics() {
		Chart(&b, "Fig test", series, m)
	}
	out := b.String()
	if !strings.Contains(out, "throughput") || !strings.Contains(out, "latency") || !strings.Contains(out, "power") {
		t.Fatal("charts missing metric names")
	}
	if !strings.Contains(out, "o = NP-NB/uniform") || !strings.Contains(out, "* = P-B/uniform") {
		t.Fatalf("chart legend missing:\n%s", out)
	}
	// Some data glyphs must appear inside the plot area.
	if !strings.Contains(out, "o") || !strings.Contains(out, "*") {
		t.Fatal("chart has no data points")
	}
}

func TestChartNoData(t *testing.T) {
	var b strings.Builder
	Chart(&b, "empty", nil, Metrics()[0])
	if !strings.Contains(b.String(), "no data") {
		t.Fatalf("empty chart output = %q", b.String())
	}
}

func TestFigureAndSummary(t *testing.T) {
	series := smallSeries(t)
	var b strings.Builder
	Figure(&b, "Figure 5 (uniform)", series)
	Summary(&b, series)
	out := b.String()
	if strings.Count(out, "Figure 5 (uniform)") != 3 {
		t.Fatal("Figure did not render all three metric charts")
	}
	if !strings.Contains(out, "pattern") || !strings.Contains(out, "NP-NB") {
		t.Fatal("summary missing rows")
	}
}

func TestMetricsAccessors(t *testing.T) {
	series := smallSeries(t)
	p := series[0].Points[0]
	for _, m := range Metrics() {
		if v := m.Get(p); v < 0 {
			t.Errorf("metric %s negative: %v", m.Name, v)
		}
	}
}

func TestWriteSVG(t *testing.T) {
	series := smallSeries(t)
	for _, m := range Metrics() {
		var b strings.Builder
		if err := WriteSVG(&b, "Figure 5 (uniform)", series, m); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "</svg>") {
			t.Fatalf("not an SVG document:\n%.200s", out)
		}
		if strings.Count(out, "<polyline") != 2 {
			t.Fatalf("%s: expected 2 polylines, got %d", m.Name, strings.Count(out, "<polyline"))
		}
		if !strings.Contains(out, "NP-NB/uniform") || !strings.Contains(out, "P-B/uniform") {
			t.Fatal("legend entries missing")
		}
		if !strings.Contains(out, m.Name) {
			t.Fatalf("title missing metric %q", m.Name)
		}
	}
}

func TestWriteSVGNoData(t *testing.T) {
	var b strings.Builder
	if err := WriteSVG(&b, "empty", nil, Metrics()[0]); err == nil {
		t.Fatal("empty series did not error")
	}
}

func TestSVGEscapesLabels(t *testing.T) {
	series := smallSeries(t)
	var b strings.Builder
	if err := WriteSVG(&b, `a<b>&"c"`, series, Metrics()[0]); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), `a<b>`) {
		t.Fatal("title not escaped")
	}
	if !strings.Contains(b.String(), "a&lt;b&gt;&amp;&quot;c&quot;") {
		t.Fatal("escaped title missing")
	}
}
