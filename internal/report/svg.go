package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/sweep"
)

// svg geometry constants.
const (
	svgW, svgH       = 640, 400
	svgMarginL       = 70
	svgMarginR       = 180 // room for the legend
	svgMarginT       = 40
	svgMarginB       = 50
	svgPlotW         = svgW - svgMarginL - svgMarginR
	svgPlotH         = svgH - svgMarginT - svgMarginB
	svgTicks         = 5
	svgStrokePalette = "#1f77b4,#d62728,#2ca02c,#9467bd,#ff7f0e,#8c564b,#e377c2,#7f7f7f"
)

// WriteSVG renders one figure panel (x = load, y = metric) as a
// standalone SVG line chart with one polyline per series.
func WriteSVG(w io.Writer, title string, series []sweep.Series, m Metric) error {
	var xmin, xmax, ymax float64
	xmin, xmax = math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range series {
		for _, p := range s.Points {
			if p.Err != nil || p.Result == nil {
				continue
			}
			any = true
			if p.Load < xmin {
				xmin = p.Load
			}
			if p.Load > xmax {
				xmax = p.Load
			}
			if v := m.Get(p); v > ymax {
				ymax = v
			}
		}
	}
	if !any || xmax <= xmin {
		return fmt.Errorf("report: no data for %q", title)
	}
	if ymax == 0 {
		ymax = 1
	}
	ymax *= 1.05 // headroom

	x := func(load float64) float64 {
		return svgMarginL + float64((load-xmin)/(xmax-xmin)*svgPlotW)
	}
	y := func(v float64) float64 {
		return svgMarginT + float64((1-v/ymax)*svgPlotH)
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`+"\n", svgW, svgH)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", svgW, svgH)
	fmt.Fprintf(&b, `<text x="%d" y="22" font-size="15" font-weight="bold">%s — %s (%s)</text>`+"\n",
		svgMarginL, escape(title), m.Name, m.Unit)

	// Axes and grid.
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#444"/>`+"\n",
		svgMarginL, svgMarginT, svgPlotW, svgPlotH)
	for i := 0; i <= svgTicks; i++ {
		f := float64(i) / svgTicks
		gy := svgMarginT + float64((1-f)*svgPlotH)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`+"\n",
			svgMarginL, gy, svgMarginL+svgPlotW, gy)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end">%.3g</text>`+"\n",
			svgMarginL-6, gy+4, f*ymax)
		gx := svgMarginL + float64(f*float64(svgPlotW))
		load := xmin + float64(f*(xmax-xmin))
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle">%.1f</text>`+"\n",
			gx, svgMarginT+svgPlotH+18, load)
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle">offered load (fraction of N_c)</text>`+"\n",
		svgMarginL+svgPlotW/2, svgH-12)

	colors := strings.Split(svgStrokePalette, ",")
	for si, s := range series {
		color := colors[si%len(colors)]
		var pts []string
		for _, p := range s.Points {
			if p.Err != nil || p.Result == nil {
				continue
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", x(p.Load), y(m.Get(p))))
		}
		if len(pts) == 0 {
			continue
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			strings.Join(pts, " "), color)
		for _, p := range s.Points {
			if p.Err != nil || p.Result == nil {
				continue
			}
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`+"\n", x(p.Load), y(m.Get(p)), color)
		}
		// Legend entry.
		ly := svgMarginT + 16*si
		lx := svgMarginL + svgPlotW + 14
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`+"\n",
			lx, ly, lx+18, ly, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`+"\n", lx+24, ly+4, escape(s.Label()))
	}
	fmt.Fprintln(&b, `</svg>`)
	_, err := io.WriteString(w, b.String())
	return err
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
