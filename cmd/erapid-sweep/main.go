// Command erapid-sweep regenerates the paper's figures: throughput,
// latency and power versus offered load for the four network modes,
// per traffic pattern.
//
//	erapid-sweep -figure 5            # uniform + complement (Fig. 5)
//	erapid-sweep -figure 6            # butterfly + shuffle (Fig. 6)
//	erapid-sweep -figure all -csv out.csv
//	erapid-sweep -patterns uniform -modes NP-NB,P-B -quick
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	erapid "repro"
	"repro/internal/core"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

func main() {
	var (
		figure   = flag.String("figure", "all", "which figure to regenerate: 5, 6 or all")
		patterns = flag.String("patterns", "", "comma-separated pattern list (overrides -figure)")
		modes    = flag.String("modes", "NP-NB,P-NB,NP-B,P-B", "comma-separated mode list")
		loads    = flag.String("loads", "", "comma-separated loads (default 0.1..0.9)")
		csvPath  = flag.String("csv", "", "write full results as CSV to this file")
		svgDir   = flag.String("svg", "", "write one SVG chart per (figure, metric) into this directory")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS/run-workers)")
		runWork  = flag.Int("run-workers", 1, "intra-run worker threads per simulation (board-sharded, bit-identical to 1)")
		progress = flag.Duration("progress-interval", 0, "minimum time between progress lines (0 = every point)")
	)
	profFlags := prof.AddFlags()
	shape := prof.AddConfigFlags("random seed",
		"reconfiguration policy for every run: a name (paper, greedy-off, ewma, oracle-static) or a JSON spec",
		"shorter warm-up/measurement (coarser, ~5x faster)")
	flag.Parse()

	stopProf, err := profFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProf()

	pats, err := pickPatterns(*figure, *patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ms, err := parseModes(*modes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ls, err := parseLoads(*loads)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	base := erapid.DefaultConfig(erapid.NPNB)
	if err := shape.Apply(&base, flag.VisitAll); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Budget the two parallelism levels against the machine: each of the
	// -workers concurrent simulations spins up -run-workers threads, so
	// the sweep default shrinks to keep the product near the core count.
	base.Workers = *runWork
	sweepWorkers := *workers
	if sweepWorkers <= 0 && *runWork > 1 {
		sweepWorkers = runtime.GOMAXPROCS(0) / *runWork
		if sweepWorkers < 1 {
			sweepWorkers = 1
		}
	}
	// Ctrl-C / SIGTERM cancels in-flight simulations at their next
	// reconfiguration-window boundary instead of killing them mid-cycle.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()

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
	fmt.Fprintf(os.Stderr, "running %d simulations (%d patterns x %d modes x %d loads)...\n",
		total, len(pats), len(ms), len(ls))
	series, sweepErr := erapid.SweepContext(ctx, sweep.Request{
		Base:     base,
		Patterns: pats,
		Modes:    ms,
		Loads:    ls,
		Workers:  sweepWorkers,
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
	})
	if sweepErr != nil {
		if errors.Is(sweepErr, context.Canceled) {
			fmt.Fprintln(os.Stderr, "sweep cancelled by signal")
		} else {
			fmt.Fprintln(os.Stderr, "error:", sweepErr)
		}
		os.Exit(1)
	}

	// Group by pattern and render each figure.
	for _, pat := range pats {
		var group []sweep.Series
		for _, s := range series {
			if s.Pattern == pat {
				group = append(group, s)
			}
		}
		fig := "Figure 6"
		if pat == erapid.Uniform || pat == erapid.Complement {
			fig = "Figure 5"
		}
		fmt.Printf("\n================ %s: %s traffic ================\n\n", fig, pat)
		report.Figure(os.Stdout, fig+" ("+pat+")", group)
	}
	fmt.Println()
	report.Summary(os.Stdout, series)

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := report.WriteCSV(f, series); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
	if *svgDir != "" {
		if err := writeSVGs(*svgDir, pats, series); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// writeSVGs renders one SVG per (pattern, metric) into dir.
func writeSVGs(dir string, pats []string, series []sweep.Series) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, pat := range pats {
		var group []sweep.Series
		for _, s := range series {
			if s.Pattern == pat {
				group = append(group, s)
			}
		}
		for _, m := range report.Metrics() {
			path := dir + "/" + pat + "-" + m.Name + ".svg"
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := report.WriteSVG(f, pat+" traffic", group, m); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	return nil
}

func pickPatterns(figure, override string) ([]string, error) {
	if override != "" {
		pats := splitList(override)
		if len(pats) == 0 {
			return nil, errors.New("no patterns given")
		}
		return pats, nil
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

func parseModes(s string) ([]core.Mode, error) {
	var ms []core.Mode
	for _, tok := range splitList(s) {
		m, err := erapid.ParseMode(tok)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("no modes given")
	}
	return ms, nil
}

func parseLoads(s string) ([]float64, error) {
	if s == "" {
		return erapid.PaperLoads(), nil
	}
	var ls []float64
	for _, tok := range splitList(s) {
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("bad load %q", tok)
		}
		ls = append(ls, v)
	}
	if len(ls) == 0 {
		return nil, errors.New("no loads given")
	}
	return ls, nil
}

func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok != "" {
			out = append(out, tok)
		}
	}
	return out
}
