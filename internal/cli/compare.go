package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	erapid "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/sweep"
)

// compareCmd races every reconfiguration policy over the same scenarios
// — identical topology, traffic, seeds and fault schedule — and reports
// the power × latency × availability trade-off as a Pareto table plus
// one SVG scatter per scenario.
//
//	erapid compare                          # built-in scenario set, table to stdout
//	erapid compare -quick -out results      # also write table + SVGs into results/
//	erapid compare -policies paper,greedy-off -scenarios idle-skew
func compareCmd(args []string) error {
	f := newFlags("erapid compare", core.DefaultConfig(core.PB))
	f.topology()
	f.seed("random seed shared by every run")
	f.quick("shorter warm-up/measurement (coarser, ~3x faster)")
	var (
		policies  = f.String("policies", "", "comma-separated policy selectors (default: every registered policy); each is a name or JSON spec")
		scenarios = f.String("scenarios", "", "comma-separated scenario names to run (default: all; see -list)")
		list      = f.Bool("list", false, "list the built-in scenarios and exit")
		outDir    = f.String("out", "", "write compare.txt and one pareto-<scenario>.svg per scenario into this directory")
		workers   int
		verbose   = f.Bool("v", false, "print each run as it finishes")
	)
	f.count(&workers, "workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	stop, err := f.parse(args)
	if err != nil {
		return err
	}
	defer stop()

	scs := compareScenarios(f.cfg)
	if *list {
		for _, sc := range scs {
			fmt.Println(sc.Describe())
		}
		return nil
	}
	if *scenarios != "" {
		if scs, err = pickScenarios(scs, *scenarios); err != nil {
			return usageError{err}
		}
	}
	var specs []*policy.Spec // nil: every registered policy
	if *policies != "" {
		if specs, err = parseList(*policies, "policies", policy.ParseSpec); err != nil {
			return usageError{err}
		}
	}

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
	ctx, stopSignals := signalContext()
	defer stopSignals()
	cmps, err := sweep.Compare(ctx, sweep.CompareRequest{
		Scenarios: scs,
		Policies:  specs,
		Workers:   workers,
		OnResult:  onResult,
	})
	if errors.Is(err, context.Canceled) {
		return errors.New("compare cancelled by signal")
	} else if err != nil {
		return fmt.Errorf("compare: %w", err)
	}

	if err := report.WriteCompareTable(os.Stdout, cmps); err != nil {
		return err
	}
	if *outDir != "" {
		return writeArtifacts(*outDir, cmps)
	}
	return nil
}

// compareScenarios returns the built-in comparison set over a base config:
// the paper's P-B headline point, an idle-skewed point where most
// wavelength channels see no traffic (the power-saving policies'
// home turf), a saturating hotspot, and a faulted run.
func compareScenarios(base core.Config) []sweep.Scenario {
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

// pickScenarios selects the comma-separated named scenarios from all.
func pickScenarios(all []sweep.Scenario, names string) ([]sweep.Scenario, error) {
	return parseList(names, "scenarios", func(name string) (sweep.Scenario, error) {
		known := make([]string, len(all))
		for i, sc := range all {
			if sc.Name == name {
				return sc, nil
			}
			known[i] = sc.Name
		}
		return sweep.Scenario{}, fmt.Errorf("unknown scenario %q (known: %s)", name, strings.Join(known, ", "))
	})
}

// writeArtifacts writes the Pareto table and one SVG per scenario.
func writeArtifacts(dir string, cmps []sweep.Comparison) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	err := writeFile(filepath.Join(dir, "compare.txt"), func(w io.Writer) error {
		return report.WriteCompareTable(w, cmps)
	})
	if err != nil {
		return err
	}
	for _, cmp := range cmps {
		err := writeFile(filepath.Join(dir, "pareto-"+cmp.Scenario.Name+".svg"), func(w io.Writer) error {
			return report.WriteParetoSVG(w, cmp)
		})
		if err != nil {
			return err
		}
	}
	return nil
}
