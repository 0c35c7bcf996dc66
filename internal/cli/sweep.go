package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	erapid "repro"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// sweepCmd regenerates the paper's figures: throughput, latency and
// power versus offered load for the four network modes, per traffic
// pattern.
//
//	erapid sweep -figure 5            # uniform + complement (Fig. 5)
//	erapid sweep -figure 6            # butterfly + shuffle (Fig. 6)
//	erapid sweep -figure all -csv out.csv
//	erapid sweep -patterns uniform -modes NP-NB,P-B -quick
func sweepCmd(args []string) error {
	f := newFlags("erapid sweep", core.DefaultConfig(core.NPNB))
	f.topology()
	f.seed("random seed")
	f.policy("reconfiguration policy for every run: a name (paper, greedy-off, ewma, oracle-static) or a JSON spec")
	f.quick("shorter warm-up/measurement (coarser, ~5x faster)")
	f.profile()
	var (
		figure   = f.String("figure", "all", "which figure to regenerate: 5, 6 or all")
		patterns = f.String("patterns", "", "comma-separated pattern list (overrides -figure)")
		modes    = f.String("modes", "NP-NB,P-NB,NP-B,P-B", "comma-separated mode list")
		loads    = f.String("loads", "", "comma-separated loads (default 0.1..0.9)")
		csvPath  = f.String("csv", "", "write full results as CSV to this file")
		svgDir   = f.String("svg", "", "write one SVG chart per (figure, metric) into this directory")
		workers  int
		progress = f.Duration("progress-interval", 0, "minimum time between progress lines (0 = every point)")
	)
	f.count(&workers, "workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	stop, err := f.parse(args)
	if err != nil {
		return err
	}
	defer stop()

	pats, err := pickPatterns(*figure, *patterns)
	if err != nil {
		return usageError{err}
	}
	ms, err := parseList(*modes, "modes", core.ParseMode)
	if err != nil {
		return usageError{err}
	}
	ls, err := parseLoads(*loads)
	if err != nil {
		return usageError{err}
	}
	total := len(pats) * len(ms) * len(ls)
	// done is a telemetry counter: sweep workers finish points
	// concurrently, and the progress/ETA line is derived from it.
	var done telemetry.Counter
	// lastPrint throttles progress output to -progress-interval: a
	// worker prints only when it wins the CAS from the stale timestamp,
	// so concurrent finishers never double-print. The final point always
	// prints.
	var lastPrint atomic.Int64
	start := time.Now()
	req := sweep.Request{
		Base:     f.cfg,
		Patterns: pats,
		Modes:    ms,
		Loads:    ls,
		Workers:  workers,
		OnResult: func(s sweep.Series, p sweep.Point) {
			n := done.Inc()
			if *progress > 0 && n < uint64(total) {
				nowNs := time.Now().UnixNano()
				last := lastPrint.Load()
				if nowNs-last < int64(*progress) || !lastPrint.CompareAndSwap(last, nowNs) {
					return
				}
			}
			elapsed := time.Since(start)
			var eta time.Duration
			if rem := uint64(total) - n; n > 0 {
				eta = time.Duration(float64(elapsed) / float64(n) * float64(rem))
			}
			fmt.Fprintf(os.Stderr, "  [%3d/%3d] %s load %.2f  %3d%%  elapsed %s  eta %s\n",
				n, total, s.Label(), p.Load, 100*n/uint64(total),
				elapsed.Round(time.Second), eta.Round(time.Second))
		},
	}
	if err := req.Validate(); err != nil {
		return usageError{err}
	}
	// Ctrl-C / SIGTERM cancels in-flight simulations at their next
	// reconfiguration-window boundary instead of killing them mid-cycle.
	ctx, stopSignals := signalContext()
	defer stopSignals()
	fmt.Fprintf(os.Stderr, "running %d simulations (%d patterns x %d modes x %d loads)...\n",
		total, len(pats), len(ms), len(ls))
	series, err := erapid.SweepContext(ctx, req)
	if errors.Is(err, context.Canceled) {
		return errors.New("sweep cancelled by signal")
	} else if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}

	// Group by pattern and render each figure.
	for _, pat := range pats {
		fig := "Figure 6"
		if pat == erapid.Uniform || pat == erapid.Complement {
			fig = "Figure 5"
		}
		fmt.Printf("\n================ %s: %s traffic ================\n\n", fig, pat)
		report.Figure(os.Stdout, fig+" ("+pat+")", ofPattern(series, pat))
	}
	fmt.Println()
	report.Summary(os.Stdout, series)

	if *csvPath != "" {
		err := writeFile(*csvPath, func(w io.Writer) error { return report.WriteCSV(w, series) })
		if err != nil {
			return err
		}
	}
	if *svgDir != "" {
		return writeSVGs(*svgDir, pats, series)
	}
	return nil
}

// ofPattern returns the series of one traffic pattern.
func ofPattern(series []sweep.Series, pat string) []sweep.Series {
	var group []sweep.Series
	for _, s := range series {
		if s.Pattern == pat {
			group = append(group, s)
		}
	}
	return group
}

// writeSVGs renders one SVG per (pattern, metric) into dir.
func writeSVGs(dir string, pats []string, series []sweep.Series) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, pat := range pats {
		group := ofPattern(series, pat)
		for _, m := range report.Metrics() {
			err := writeFile(dir+"/"+pat+"-"+m.Name+".svg", func(w io.Writer) error {
				return report.WriteSVG(w, pat+" traffic", group, m)
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func pickPatterns(figure, override string) ([]string, error) {
	if override != "" {
		return parseList(override, "patterns", func(p string) (string, error) { return p, nil })
	}
	switch figure {
	case "5":
		return []string{erapid.Uniform, erapid.Complement}, nil
	case "6":
		return []string{erapid.Butterfly, erapid.Shuffle}, nil
	case "all":
		return erapid.PaperPatterns(), nil
	}
	return nil, fmt.Errorf("unknown figure %q (want 5, 6 or all)", figure)
}

func parseLoads(s string) ([]float64, error) {
	if s == "" {
		return erapid.PaperLoads(), nil
	}
	return parseList(s, "loads", func(tok string) (float64, error) {
		v, err := strconv.ParseFloat(tok, 64)
		if err == nil {
			err = sweep.CheckLoad(v)
		}
		if err != nil {
			return 0, fmt.Errorf("bad load %q: %w", tok, err)
		}
		return v, nil
	})
}
