package cli

import (
	"fmt"
	"os"

	erapid "repro"
	"repro/internal/core"
	"repro/internal/report"
)

// tablesCmd prints the paper's static artifacts: Table 1 (network
// parameters and per-level optical link power) and the Fig. 3 design-
// space comparison as a measured per-window time series.
//
//	erapid tables                 # Table 1
//	erapid tables -designspace    # Fig. 3 time series
func tablesCmd(args []string) error {
	f := newFlags("erapid tables", core.Config{})
	designspace := f.Bool("designspace", false, "run the Fig. 3 design-space time series")
	stop, err := f.parse(args)
	if err != nil {
		return err
	}
	defer stop()

	report.Table1(os.Stdout)
	if !*designspace {
		return nil
	}
	fmt.Println()
	return runDesignSpace()
}

// runDesignSpace replays Fig. 3: a phased load (low → high → low) on the
// 16-node system, sampling per-window supply power and aggregate link
// utilization for each of the four modes.
func runDesignSpace() error {
	fmt.Println("Figure 3 design space: per-window supply power (mW) under a phased load")
	fmt.Println("  phase A (windows 1-5): light load; phase B (6-10): heavy; phase C (11-15): light")
	fmt.Printf("  %-8s", "window")
	for _, m := range erapid.Modes() {
		fmt.Printf(" %10s", m)
	}
	fmt.Println()

	const window = 1000
	const nWindows = 15
	samples := make(map[erapid.Mode][]float64)
	for _, m := range erapid.Modes() {
		cfg := erapid.DefaultConfig(m)
		cfg.Boards, cfg.NodesPerBoard = 4, 4
		cfg.Window = window
		cfg.InjectionRate = 0.002
		cfg.Load = 0
		sys, err := erapid.NewSystem(cfg)
		if err != nil {
			return err
		}
		fab := sys.Fabric()
		fab.EnableMetering(true)
		for w := 0; w < nWindows; w++ {
			switch w {
			case 5:
				sys.SetInjectionRate(0.018) // phase B: heavy
			case 10:
				sys.SetInjectionRate(0.002) // phase C: light again
			}
			fab.Meter().Reset()
			for c := 0; c < window; c++ {
				sys.Step()
			}
			samples[m] = append(samples[m], fab.Meter().AvgSupplyMW())
		}
	}
	for w := 0; w < nWindows; w++ {
		fmt.Printf("  %-8d", w+1)
		for _, m := range erapid.Modes() {
			fmt.Printf(" %10.1f", samples[m][w])
		}
		fmt.Println()
	}
	fmt.Println("  (NP modes hold supply power flat; P modes scale it down once idle windows elapse.)")
	return nil
}
