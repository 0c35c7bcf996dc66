// Command benchmark is the repository's benchmark of record. It builds
// erapid, erapid-sweep and erapid-serve, runs the seven workloads named
// in BENCHMARK.json against them with tracing off, and reports the
// end-to-end metrics a user of those programs would see; a separate
// traced run drives the same workloads in-process through the public API
// and reports where the time goes, layer by layer. See README.md.
//
//	go run ./benchmark                  every workload, then the traced runs and the budget table
//	go run ./benchmark -selfcheck       the untraced set twice; fails if the two disagree beyond the bounds
//	go run ./benchmark -workload idle-64 -seed 7 -seconds 10 -trace 0
//	                                    one workload, ending in the driver's one-line JSON result
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "run this one workload and end with the driver's JSON result line (default: the whole suite)")
		seed      = fs.Uint64("seed", 1, "workload seed: every generated flag, request body and schedule derives from it")
		seconds   = fs.Float64("seconds", 0, "how long each workload's timed part runs (default: run_seconds of BENCHMARK.json)")
		traceOn   = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics (tracing off), 1 the per-layer metrics (traced run)")
		selfcheck = fs.Bool("selfcheck", false, "run the untraced set twice and fail if any metric's two medians differ by more than its bound")
		smoke     = fs.Bool("smoke", false, "tiny inputs and one repetition: exercises every code path in seconds, measures nothing")
		update    = fs.Bool("update-expected", false, "with the traced run: re-pin the simulated statistics in benchmark/expected/")
		root      = fs.String("root", ".", "checkout root (where go.mod and BENCHMARK.json are)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	b, err := newBench(*root, *seed, *smoke, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	defer b.close()
	if *seconds == 0 {
		*seconds = float64(b.spec.RunSeconds)
	}
	if *smoke {
		*seconds = 0
	}
	all := workloads(*smoke)

	var code int
	switch {
	case *name != "":
		code, err = b.runOne(ctx, all, *name, *seconds, *traceOn == 1, *update, stdout)
	case *selfcheck:
		code, err = b.selfcheck(ctx, all, *seconds, stdout)
	default:
		code, err = b.suite(ctx, all, *seconds, *update, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return code
}

// runOne is the driver's entry: one workload, one mode, one JSON line.
// The line reports failed operations; the exit code stays 0 as long as a
// result could be produced at all.
func (b *bench) runOne(ctx context.Context, all []workload, name string, seconds float64, traceOn, update bool, stdout io.Writer) (int, error) {
	var w *workload
	for i := range all {
		if all[i].name == name {
			w = &all[i]
		}
	}
	if w == nil {
		return 2, fmt.Errorf("unknown workload %q", name)
	}
	line := resultLine{}
	var o *outcome
	if traceOn {
		l, err := b.traced(ctx, *w)
		if err != nil {
			return 1, err
		}
		if update {
			if err := b.writeExpected(*w, l.digest); err != nil {
				return 1, err
			}
		}
		if err := writeTrace(filepath.Join(b.buildDir, "trace.json"), b.seed, l.spans); err != nil {
			return 1, err
		}
		if line.Metrics, err = render(b.spec.PerLayer, l.values); err != nil {
			return 1, err
		}
		o = l.out
		b.printLayers([]workload{*w}, map[string]*layered{w.name: l}, b.log)
	} else {
		var err error
		if o, err = b.measure(ctx, *w, seconds); err != nil {
			return 1, err
		}
		if line.Metrics, err = render(b.spec.EndToEnd, o.values()); err != nil {
			return 1, err
		}
		b.printEndToEnd([]workload{*w}, map[string]*outcome{w.name: o}, b.log)
		for _, m := range b.spec.EndToEnd {
			b.logf("samples %s %s %v", w.name, m.Name, o.samples[m.Name])
		}
	}
	for _, p := range o.problems {
		b.logf("FAILED: %s", p)
	}
	line.Correct, line.Attempted, line.Failed = o.failed == 0, o.attempted, o.failed
	data, err := json.Marshal(line)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(data))
	return 0, nil
}

// measureAll runs the untraced measurement of every workload.
func (b *bench) measureAll(ctx context.Context, all []workload, seconds float64) (map[string]*outcome, error) {
	out := make(map[string]*outcome)
	for _, w := range all {
		b.logf("-- %s: measuring for %g s, tracing off", w.name, seconds)
		o, err := b.measure(ctx, w, seconds)
		if err != nil {
			return nil, err
		}
		out[w.name] = o
	}
	return out, nil
}

// failures prints every failed check and returns how many ops failed.
func failures(outs map[string]*outcome, w io.Writer) int {
	failed := 0
	names := make([]string, 0, len(outs))
	for name := range outs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, p := range outs[name].problems {
			fmt.Fprintln(w, "FAILED:", p)
		}
		failed += outs[name].failed
	}
	return failed
}

// suite is `go run ./benchmark`: the untraced numbers first, then one
// traced run per workload, the budget table and trace.json.
func (b *bench) suite(ctx context.Context, all []workload, seconds float64, update bool, stdout io.Writer) (int, error) {
	outs, err := b.measureAll(ctx, all, seconds)
	if err != nil {
		return 1, err
	}
	b.printEndToEnd(all, outs, stdout)

	layers := make(map[string]*layered)
	var spans []span
	for _, w := range all {
		b.logf("-- %s: traced run", w.name)
		l, err := b.traced(ctx, w)
		if err != nil {
			return 1, err
		}
		if update {
			if err := b.writeExpected(w, l.digest); err != nil {
				return 1, err
			}
		}
		if _, err := render(b.spec.PerLayer, l.values); err != nil {
			return 1, err
		}
		layers[w.name] = l
		spans = append(spans, l.spans...)
		outs[w.name+" (traced)"] = l.out
	}
	b.printLayers(all, layers, stdout)
	path := filepath.Join(b.buildDir, "trace.json")
	if err := writeTrace(path, b.seed, spans); err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "\nwrote %s (%d spans)\n", path, len(spans))
	if n := failures(outs, stdout); n > 0 {
		fmt.Fprintf(stdout, "\n%d operations failed their output checks\n", n)
		return 1, nil
	}
	fmt.Fprintln(stdout, "\nall output checks passed")
	return 0, nil
}

// selfcheck runs the whole untraced set twice and compares, for every
// end-to-end metric of every workload, the two medians against the bound
// BENCHMARK.json fixes for it.
func (b *bench) selfcheck(ctx context.Context, all []workload, seconds float64, stdout io.Writer) (int, error) {
	first, err := b.measureAll(ctx, all, seconds)
	if err != nil {
		return 1, err
	}
	second, err := b.measureAll(ctx, all, seconds)
	if err != nil {
		return 1, err
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian A\tq1..q3 A\tn\tmedian B\tq1..q3 B\tn\tB worse by\tbound\t")
	over := 0
	for _, w := range all {
		for _, m := range b.spec.EndToEnd {
			a, c := first[w.name].samples[m.Name], second[w.name].samples[m.Name]
			worse := relWorse(median(a), median(c), m.Better)
			verdict := ""
			if worse > m.Bound {
				verdict = " OVER"
				over++
			}
			qa1, qa3 := quartiles(a)
			qc1, qc3 := quartiles(c)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.4g..%.4g\t%d\t%.5g\t%.4g..%.4g\t%d\t%+.1f%%%s\t%.0f%%\t\n",
				w.name, m.Name, m.Unit, median(a), qa1, qa3, len(a), median(c), qc1, qc3, len(c), 100*worse, verdict, 100*m.Bound)
		}
	}
	tw.Flush()
	failed := failures(first, stdout) + failures(second, stdout)
	switch {
	case failed > 0:
		fmt.Fprintf(stdout, "\n%d operations failed their output checks\n", failed)
		return 1, nil
	case over > 0:
		fmt.Fprintf(stdout, "\n%d (metric, workload) pairs moved by more than their bound between two sets of runs of one commit\n", over)
		return 1, nil
	}
	fmt.Fprintln(stdout, "\nthe two sets agree within every bound; no operation failed")
	return 0, nil
}

// printEndToEnd prints every end-to-end metric by name with its unit, the
// sample count behind the median and the quartiles.
func (b *bench) printEndToEnd(all []workload, outs map[string]*outcome, w io.Writer) {
	fmt.Fprintf(w, "\n== end-to-end metrics: tracing off, seed %d, medians over n repetitions ==\n", b.seed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tunit\tn\tq1\tq3\t")
	for _, wl := range all {
		o := outs[wl.name]
		if o == nil {
			continue
		}
		for _, m := range b.spec.EndToEnd {
			xs := o.samples[m.Name]
			q1, q3 := quartiles(xs)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%d\t%.5g\t%.5g\t\n", wl.name, m.Name, median(xs), m.Unit, len(xs), q1, q3)
		}
		fmt.Fprintf(tw, "%s\tops_failed_share\t%.6g\tratio\t%d\t\t\t\n", wl.name, float64(o.failed)/float64(max(o.attempted, 1)), o.attempted)
	}
	tw.Flush()
	for _, wl := range all {
		if o := outs[wl.name]; o != nil {
			for _, note := range o.notes {
				fmt.Fprintf(w, "%s: %s\n", wl.name, note)
			}
		}
	}
}

// printLayers prints the per-layer metrics of the traced runs and the
// ns-per-cycle budget table.
func (b *bench) printLayers(all []workload, layers map[string]*layered, w io.Writer) {
	var shown []workload
	for _, wl := range all {
		if layers[wl.name] != nil {
			shown = append(shown, wl)
		}
	}
	fmt.Fprintf(w, "\n== per-layer metrics: traced run, seed %d ==\n", b.seed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\tunit\t")
	for _, wl := range shown {
		fmt.Fprintf(tw, "%s\t", wl.name)
	}
	fmt.Fprintln(tw)
	for _, m := range b.spec.PerLayer {
		fmt.Fprintf(tw, "%s\t%s\t", m.Name, m.Unit)
		for _, wl := range shown {
			fmt.Fprintf(tw, "%.5g\t", layers[wl.name].values[m.Name])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	fmt.Fprintln(w, "\n== host ns per simulated cycle, by layer (standalone harness ns/call x traced calls/cycle) ==")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "layer\t")
	for _, wl := range shown {
		fmt.Fprintf(tw, "%s\t", wl.name)
	}
	fmt.Fprintln(tw)
	row := func(label string, get func(*layered) float64, format string) {
		fmt.Fprintf(tw, "%s\t", label)
		for _, wl := range shown {
			fmt.Fprintf(tw, format+"\t", get(layers[wl.name]))
		}
		fmt.Fprintln(tw)
	}
	for _, layer := range budgetLayers {
		label := layer
		if layer == "sim" {
			label = "sim (inside ctrl)"
		}
		row(label, func(l *layered) float64 { return l.budget[layer] }, "%.1f")
	}
	row("core.step_ns_per_cycle", func(l *layered) float64 { return l.values["core.step_ns_per_cycle"] }, "%.1f")
	row("core.unattributed_share", func(l *layered) float64 { return l.values["core.unattributed_share"] }, "%.3f")
	row("trace_overhead_share", func(l *layered) float64 { return l.values["trace_overhead_share"] }, "%.3f")
	tw.Flush()
	fmt.Fprintln(w, strings.TrimSpace(`
(the layer system of hier-1024 is one rack-shaped 8x8, of sweep-fig5 its P-B uniform job at the
higher load, of service-mix its 4x4 job; see benchmark/README.md)`))
}
