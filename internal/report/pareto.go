package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/sweep"
)

// WriteCompareTable renders the Pareto tables of a cross-policy
// comparison: one block per scenario, one row per policy with the
// three frontier axes (supply power, average latency, availability),
// the secondary diagnostics, and the run's content digest. The output
// is deterministic byte for byte — the compare golden test pins it.
func WriteCompareTable(w io.Writer, cmps []sweep.Comparison) error {
	for ci, cmp := range cmps {
		if ci > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "scenario %s\n", cmp.Scenario.Describe()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  %-14s %10s %10s %9s %9s %12s %8s %8s %8s  %-12s %s\n",
			"policy", "supply-mW", "dyn-mW", "avg-lat", "p99-lat", "avail", "repairs", "shutdn", "reassign", "digest", "pareto"); err != nil {
			return err
		}
		for _, o := range cmp.Outcomes {
			if o.Err != nil {
				if _, err := fmt.Fprintf(w, "  %-14s ERROR %v\n", o.Policy, o.Err); err != nil {
					return err
				}
				continue
			}
			r := o.Result
			mark := ""
			if o.Pareto {
				mark = "*"
			}
			trunc := ""
			if r.Truncated {
				trunc = " (truncated)"
			}
			if _, err := fmt.Fprintf(w, "  %-14s %10.4f %10.4f %9.1f %9.0f %12.6f %8d %8d %8d  %-12s %s%s\n",
				o.Policy, r.PowerSupplyMW, r.PowerDynamicMW, r.AvgLatency, r.P99Latency,
				r.DeliveredFraction, r.Ctrl.FaultRepairs, r.Ctrl.Shutdowns, r.Ctrl.Reassignments,
				shortDigest(o.Digest), mark, trunc); err != nil {
				return err
			}
		}
	}
	return nil
}

func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// WriteParetoSVG renders one scenario's policy trade-off as a scatter
// plot: x = average supply power, y = average latency, one marker per
// policy. Frontier policies are filled, dominated ones hollow, and
// every marker is labeled with its availability when any run lost
// packets.
func WriteParetoSVG(w io.Writer, cmp sweep.Comparison) error {
	var xmin, xmax, ymin, ymax float64
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	lossy := false
	any := false
	for _, o := range cmp.Outcomes {
		if o.Err != nil || o.Result == nil {
			continue
		}
		any = true
		xmin = math.Min(xmin, o.Result.PowerSupplyMW)
		xmax = math.Max(xmax, o.Result.PowerSupplyMW)
		ymin = math.Min(ymin, o.Result.AvgLatency)
		ymax = math.Max(ymax, o.Result.AvgLatency)
		if o.Result.DeliveredFraction < 1 {
			lossy = true
		}
	}
	if !any {
		return fmt.Errorf("report: no data for scenario %q", cmp.Scenario.Name)
	}
	// Pad the ranges so single-point or near-degenerate axes still plot.
	xpad, ypad := (xmax-xmin)*0.1, (ymax-ymin)*0.1
	if xpad == 0 {
		xpad = math.Max(xmax*0.1, 1)
	}
	if ypad == 0 {
		ypad = math.Max(ymax*0.1, 1)
	}
	xmin, xmax = xmin-xpad, xmax+xpad
	ymin, ymax = ymin-ypad, ymax+ypad

	x := func(v float64) float64 { return svgMarginL + float64((v-xmin)/(xmax-xmin)*svgPlotW) }
	y := func(v float64) float64 { return svgMarginT + float64((1-(v-ymin)/(ymax-ymin))*svgPlotH) }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`+"\n", svgW, svgH)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", svgW, svgH)
	fmt.Fprintf(&b, `<text x="%d" y="22" font-size="15" font-weight="bold">%s — power × latency Pareto</text>`+"\n",
		svgMarginL, escape(cmp.Scenario.Name))
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#444"/>`+"\n",
		svgMarginL, svgMarginT, svgPlotW, svgPlotH)
	for i := 0; i <= svgTicks; i++ {
		f := float64(i) / svgTicks
		gy := svgMarginT + float64((1-f)*svgPlotH)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`+"\n",
			svgMarginL, gy, svgMarginL+svgPlotW, gy)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end">%.4g</text>`+"\n",
			svgMarginL-6, gy+4, ymin+float64(f*(ymax-ymin)))
		gx := svgMarginL + float64(f*float64(svgPlotW))
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle">%.4g</text>`+"\n",
			gx, svgMarginT+svgPlotH+18, xmin+float64(f*(xmax-xmin)))
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle">avg supply power (mW)</text>`+"\n",
		svgMarginL+svgPlotW/2, svgH-12)
	fmt.Fprintf(&b, `<text x="16" y="%d" text-anchor="middle" transform="rotate(-90 16 %d)">avg latency (cycles)</text>`+"\n",
		svgMarginT+svgPlotH/2, svgMarginT+svgPlotH/2)

	colors := strings.Split(svgStrokePalette, ",")
	li := 0
	for oi, o := range cmp.Outcomes {
		if o.Err != nil || o.Result == nil {
			continue
		}
		color := colors[oi%len(colors)]
		cx, cy := x(o.Result.PowerSupplyMW), y(o.Result.AvgLatency)
		fill := "white"
		if o.Pareto {
			fill = color
		}
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="5" fill="%s" stroke="%s" stroke-width="2"/>`+"\n",
			cx, cy, fill, color)
		if lossy {
			fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="10" fill="#666">%.4f</text>`+"\n",
				cx+8, cy-6, o.Result.DeliveredFraction)
		}
		// Legend entry.
		ly := svgMarginT + 16*li
		lx := svgMarginL + svgPlotW + 14
		li++
		fmt.Fprintf(&b, `<circle cx="%d" cy="%d" r="5" fill="%s" stroke="%s" stroke-width="2"/>`+"\n",
			lx+6, ly, fill, color)
		label := o.Policy
		if o.Pareto {
			label += " *"
		}
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`+"\n", lx+18, ly+4, escape(label))
	}
	fmt.Fprintln(&b, `</svg>`)
	_, err := io.WriteString(w, b.String())
	return err
}
