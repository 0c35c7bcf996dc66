package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/telemetry"
)

// Dashboard rendering: a standalone HTML page of per-window SVG panels
// built from a telemetry registry — the reconfiguration view of one
// run (per-board power, DBR channel movement, DPM levels, traffic and
// latency over LS windows).

// dashPanel is one chart: a set of registry series sharing a y-axis.
type dashPanel struct {
	Title string
	Unit  string
	// Names are registry series names; missing ones are skipped.
	Names []string
	// Labels override the legend text per series (default: the name).
	Labels []string
}

// dashGeometry (narrower than the figure SVGs; panels sit in a grid).
const (
	dashW      = 560
	dashH      = 300
	dashMarL   = 62
	dashMarR   = 150
	dashMarT   = 34
	dashMarB   = 42
	dashPlotW  = dashW - dashMarL - dashMarR
	dashPlotH  = dashH - dashMarT - dashMarB
	dashTicks  = 4
	dashMaxLeg = 16 // legend entries per panel before eliding
)

// dashboardPanels derives the panel layout from the registry contents:
// fixed global panels first, then per-board groups discovered from the
// "boardN/" series naming convention.
func dashboardPanels(reg *telemetry.Registry) []dashPanel {
	names := reg.SeriesNames()
	has := make(map[string]bool, len(names))
	boards := 0
	var levelNames []string
	for _, n := range names {
		has[n] = true
		if strings.HasPrefix(n, "board") {
			if i := strings.IndexByte(n, '/'); i > 5 {
				var b int
				if _, err := fmt.Sscanf(n[5:i], "%d", &b); err == nil && b+1 > boards {
					boards = b + 1
				}
			}
		}
		if strings.HasPrefix(n, "level") && strings.HasSuffix(n, "_channels") {
			levelNames = append(levelNames, n)
		}
	}

	perBoard := func(metric string) ([]string, []string) {
		var ns, ls []string
		for b := 0; b < boards; b++ {
			n := fmt.Sprintf("board%d/%s", b, metric)
			if has[n] {
				ns = append(ns, n)
				ls = append(ls, fmt.Sprintf("board %d", b))
			}
		}
		return ns, ls
	}

	var panels []dashPanel
	add := func(title, unit string, names, labels []string) {
		var present []string
		var plabels []string
		for i, n := range names {
			if has[n] {
				present = append(present, n)
				if labels != nil {
					plabels = append(plabels, labels[i])
				}
			}
		}
		if len(present) > 0 {
			panels = append(panels, dashPanel{Title: title, Unit: unit, Names: present, Labels: plabels})
		}
	}

	add("Traffic", "pkt/cycle", []string{"inject_rate", "deliver_rate"}, nil)
	add("Mean packet latency", "cycles", []string{"avg_latency"}, nil)
	add("Optical link power", "mW",
		[]string{"inst_supply_mw", "supply_mw", "dynamic_mw"},
		[]string{"instantaneous", "metered supply", "metered dynamic"})
	add("DPM level occupancy (held channels)", "channels", levelNames, nil)
	add("Reconfiguration actions", "1/window",
		[]string{"reassignments", "reclaims", "level_ups", "level_downs", "shutdowns", "wakes"}, nil)
	add("Faults & recovery", "per window",
		[]string{"failed_lasers", "dropped_by_fault", "fault_repairs"},
		[]string{"failed lasers", "dropped packets", "fault repairs"})

	if ns, ls := perBoard("supply_mw"); len(ns) > 0 {
		panels = append(panels, dashPanel{Title: "Per-board supply power", Unit: "mW", Names: ns, Labels: ls})
	}
	if ns, ls := perBoard("held_channels"); len(ns) > 0 {
		panels = append(panels, dashPanel{Title: "DBR held channels per board", Unit: "channels", Names: ns, Labels: ls})
	}
	if ns, ls := perBoard("avg_level"); len(ns) > 0 {
		panels = append(panels, dashPanel{Title: "Mean DPM level per board", Unit: "level", Names: ns, Labels: ls})
	}
	if ns, ls := perBoard("tx_busy"); len(ns) > 0 {
		panels = append(panels, dashPanel{Title: "Transmit occupancy per board", Unit: "active lasers", Names: ns, Labels: ls})
	}
	if ns, ls := perBoard("queued_pkts"); len(ns) > 0 {
		panels = append(panels, dashPanel{Title: "Laser queue depth per board", Unit: "pkt", Names: ns, Labels: ls})
	}
	if ns, ls := perBoard("ibi_flits"); len(ns) > 0 {
		panels = append(panels, dashPanel{Title: "IBI buffered flits per board", Unit: "flits", Names: ns, Labels: ls})
	}
	return panels
}

// writeDashPanel renders one panel as an inline SVG (x = window end
// cycle, one polyline per series).
func writeDashPanel(b *strings.Builder, p dashPanel, reg *telemetry.Registry, marks []telemetry.WindowMark) {
	if len(marks) < 2 {
		fmt.Fprintf(b, "<p><em>%s: fewer than two windows sampled.</em></p>\n", escape(p.Title))
		return
	}
	xmin := float64(marks[0].EndCycle)
	xmax := float64(marks[len(marks)-1].EndCycle)
	if xmax <= xmin {
		xmax = xmin + 1
	}
	ymax := 0.0
	type line struct {
		label string
		vals  []float64
	}
	var lines []line
	for i, name := range p.Names {
		s := reg.Lookup(name)
		if s == nil {
			continue
		}
		vals := s.Values()
		label := name
		if p.Labels != nil && i < len(p.Labels) {
			label = p.Labels[i]
		}
		for _, v := range vals {
			if !math.IsNaN(v) && v > ymax {
				ymax = v
			}
		}
		lines = append(lines, line{label: label, vals: vals})
	}
	if ymax == 0 {
		ymax = 1
	}
	ymax *= 1.05

	x := func(c float64) float64 { return dashMarL + float64((c-xmin)/(xmax-xmin)*dashPlotW) }
	y := func(v float64) float64 { return dashMarT + float64((1-v/ymax)*dashPlotH) }

	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`+"\n", dashW, dashH)
	fmt.Fprintf(b, `<rect width="%d" height="%d" fill="white"/>`+"\n", dashW, dashH)
	fmt.Fprintf(b, `<text x="%d" y="20" font-size="13" font-weight="bold">%s (%s)</text>`+"\n",
		dashMarL, escape(p.Title), escape(p.Unit))
	fmt.Fprintf(b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#444"/>`+"\n",
		dashMarL, dashMarT, dashPlotW, dashPlotH)
	for i := 0; i <= dashTicks; i++ {
		f := float64(float64(i) / dashTicks)
		gy := dashMarT + float64((1-f)*dashPlotH)
		fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`+"\n",
			dashMarL, gy, dashMarL+dashPlotW, gy)
		fmt.Fprintf(b, `<text x="%d" y="%.1f" text-anchor="end">%.3g</text>`+"\n",
			dashMarL-5, gy+4, f*ymax)
		gx := dashMarL + float64(f*float64(dashPlotW))
		fmt.Fprintf(b, `<text x="%.1f" y="%d" text-anchor="middle">%.4g</text>`+"\n",
			gx, dashMarT+dashPlotH+16, xmin+float64(f*(xmax-xmin)))
	}
	fmt.Fprintf(b, `<text x="%d" y="%d" text-anchor="middle">cycle (window end)</text>`+"\n",
		dashMarL+dashPlotW/2, dashH-8)

	colors := strings.Split(svgStrokePalette, ",")
	for li, ln := range lines {
		color := colors[li%len(colors)]
		var pts []string
		n := len(ln.vals)
		if n > len(marks) {
			n = len(marks)
		}
		for i := 0; i < n; i++ {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", x(float64(marks[i].EndCycle)), y(ln.vals[i])))
		}
		if len(pts) == 0 {
			continue
		}
		fmt.Fprintf(b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n",
			strings.Join(pts, " "), color)
		if li < dashMaxLeg {
			ly := dashMarT + 14*li
			lx := dashMarL + dashPlotW + 10
			fmt.Fprintf(b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`+"\n",
				lx, ly, lx+16, ly, color)
			fmt.Fprintf(b, `<text x="%d" y="%d">%s</text>`+"\n", lx+20, ly+4, escape(ln.label))
		}
	}
	fmt.Fprintln(b, `</svg>`)
}

// WriteDashboard renders the registry as a standalone HTML dashboard:
// one SVG panel per metric group, x-axis in cycles, one sample per
// reconfiguration window. The page has no external dependencies and
// opens directly in a browser.
func WriteDashboard(w io.Writer, title string, reg *telemetry.Registry) error {
	marks := reg.Windows()
	panels := dashboardPanels(reg)

	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n")
	fmt.Fprintf(&b, "<title>%s</title>\n", escape(title))
	b.WriteString(`<style>
body { font-family: sans-serif; margin: 24px; background: #fafafa; }
h1 { font-size: 20px; }
.meta { color: #555; margin-bottom: 18px; }
.grid { display: flex; flex-wrap: wrap; gap: 16px; }
.panel { background: white; border: 1px solid #ddd; border-radius: 6px; padding: 8px; }
</style></head><body>
`)
	fmt.Fprintf(&b, "<h1>%s</h1>\n", escape(title))
	fmt.Fprintf(&b, "<div class=\"meta\">%d windows sampled", len(marks))
	if len(marks) > 0 {
		fmt.Fprintf(&b, ", cycles %d&ndash;%d", marks[0].EndCycle, marks[len(marks)-1].EndCycle)
	}
	b.WriteString("</div>\n<div class=\"grid\">\n")
	for _, p := range panels {
		b.WriteString("<div class=\"panel\">\n")
		writeDashPanel(&b, p, reg, marks)
		b.WriteString("</div>\n")
	}
	b.WriteString("</div>\n</body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}
