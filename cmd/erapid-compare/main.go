// Command erapid-compare races every reconfiguration policy over the
// same scenarios — identical topology, traffic, seeds and fault
// schedule — and reports the power × latency × availability trade-off
// as a Pareto table plus one SVG scatter per scenario.
//
//	erapid-compare                          # built-in scenario set, table to stdout
//	erapid-compare -quick -out results      # also write table + SVGs into results/
//	erapid-compare -policies paper,greedy-off -scenarios idle-skew
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	erapid "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/sweep"
)

func main() {
	var (
		policies  = flag.String("policies", "", "comma-separated policy selectors (default: every registered policy); each is a name or JSON spec")
		scenarios = flag.String("scenarios", "", "comma-separated scenario names to run (default: all; see -list)")
		list      = flag.Bool("list", false, "list the built-in scenarios and exit")
		outDir    = flag.String("out", "", "write compare.txt and one pareto-<scenario>.svg per scenario into this directory")
		workers   = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		verbose   = flag.Bool("v", false, "print each run as it finishes")
	)
	shape := prof.AddConfigFlags("random seed shared by every run", "",
		"shorter warm-up/measurement (coarser, ~3x faster)")
	flag.Parse()

	base := erapid.DefaultConfig(erapid.PB)
	if err := shape.Apply(&base, flag.VisitAll); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	scs := Scenarios(base)
	if *list {
		for _, sc := range scs {
			fmt.Println(sc.Describe())
		}
		return
	}
	if *scenarios != "" {
		picked, err := pickScenarios(scs, splitList(*scenarios))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		scs = picked
	}
	specs, err := parsePolicies(splitList(*policies))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()

	var onResult func(string, sweep.PolicyOutcome)
	if *verbose {
		onResult = func(scenario string, o sweep.PolicyOutcome) {
			if o.Err != nil {
				fmt.Fprintf(os.Stderr, "  %s/%s: error: %v\n", scenario, o.Policy, o.Err)
				return
			}
			fmt.Fprintf(os.Stderr, "  %s/%s: supply %.1f mW, latency %.0f cyc, avail %.6f\n",
				scenario, o.Policy, o.Result.PowerSupplyMW, o.Result.AvgLatency, o.Result.DeliveredFraction)
		}
	}
	cmps, err := sweep.Compare(ctx, sweep.CompareRequest{
		Scenarios: scs,
		Policies:  specs,
		Workers:   *workers,
		OnResult:  onResult,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "compare cancelled by signal")
		} else {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
		os.Exit(1)
	}

	if err := report.WriteCompareTable(os.Stdout, cmps); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *outDir != "" {
		if err := writeArtifacts(*outDir, cmps); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// Scenarios returns the built-in comparison set over a base config:
// the paper's P-B headline point, an idle-skewed point where most
// wavelength channels see no traffic (the power-saving policies'
// home turf), a saturating hotspot, and a faulted run.
func Scenarios(base core.Config) []sweep.Scenario {
	headline := base
	headline.Pattern = erapid.Uniform
	headline.Load = 0.5

	// Complement pairs each board with one partner, so every other
	// wavelength channel is idle — skewed exactly the way a shutdown
	// policy wants — and the low load keeps even the live lasers
	// under-utilized.
	idle := base
	idle.Pattern = erapid.Complement
	idle.Load = 0.3

	hot := base
	hot.Pattern = erapid.Hotspot
	hot.Load = 0.6

	faulted := base
	faulted.Pattern = erapid.Complement
	faulted.Load = 0.4
	faulted.Faults = &fault.Spec{
		Seed: base.Seed + 1,
		Events: []fault.Event{
			// Kill the laser carrying the complement flow 1 -> B-2 (the
			// static owner of channel (d, w) is (d + w) mod B), so the DBR
			// stage must repair a channel that is actually in use.
			{At: 3 * base.Window, Kind: fault.KindLaserKill, Board: 1,
				Wavelength: ((1-(base.Boards-2))%base.Boards + base.Boards) % base.Boards,
				Dest:       base.Boards - 2},
		},
		LaserDegradeRate: 0.002,
		DegradeCycles:    200,
		CtrlDropRate:     0.01,
	}

	return []sweep.Scenario{
		{Name: "headline", Config: headline},
		{Name: "idle-skew", Config: idle},
		{Name: "hotspot", Config: hot},
		{Name: "faulted", Config: faulted},
	}
}

func pickScenarios(all []sweep.Scenario, names []string) ([]sweep.Scenario, error) {
	if len(names) == 0 {
		return nil, errors.New("no scenarios given")
	}
	var out []sweep.Scenario
	for _, name := range names {
		found := false
		for _, sc := range all {
			if sc.Name == name {
				out = append(out, sc)
				found = true
				break
			}
		}
		if !found {
			known := make([]string, len(all))
			for i, sc := range all {
				known[i] = sc.Name
			}
			return nil, fmt.Errorf("unknown scenario %q (known: %s)", name, strings.Join(known, ", "))
		}
	}
	return out, nil
}

func parsePolicies(selectors []string) ([]*policy.Spec, error) {
	if len(selectors) == 0 {
		return nil, nil // Compare defaults to every registered policy
	}
	specs := make([]*policy.Spec, len(selectors))
	for i, sel := range selectors {
		spec, err := policy.ParseSpec(sel)
		if err != nil {
			return nil, err
		}
		if spec == nil {
			spec = &policy.Spec{Name: policy.Paper}
		}
		specs[i] = spec
	}
	return specs, nil
}

// writeArtifacts writes the Pareto table and one SVG per scenario.
func writeArtifacts(dir string, cmps []sweep.Comparison) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	table, err := os.Create(filepath.Join(dir, "compare.txt"))
	if err != nil {
		return err
	}
	if err := report.WriteCompareTable(table, cmps); err != nil {
		table.Close()
		return err
	}
	if err := table.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", filepath.Join(dir, "compare.txt"))
	for _, cmp := range cmps {
		path := filepath.Join(dir, "pareto-"+cmp.Scenario.Name+".svg")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := report.WriteParetoSVG(f, cmp); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
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
