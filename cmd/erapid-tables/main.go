// Command erapid-tables prints the paper's static artifacts: Table 1
// (network parameters and per-level optical link power), the Fig. 3
// design-space comparison as a measured per-window time series, and an
// optional electrical-mesh baseline comparison.
//
//	erapid-tables                 # Table 1
//	erapid-tables -designspace    # Fig. 3 time series
//	erapid-tables -mesh           # electrical 8x8 mesh baseline
package main

import (
	"flag"
	"fmt"
	"os"

	erapid "repro"
	"repro/internal/electrical"
	"repro/internal/report"
)

func main() {
	var (
		designspace = flag.Bool("designspace", false, "run the Fig. 3 design-space time series")
		mesh        = flag.Bool("mesh", false, "run the electrical mesh baseline comparison")
	)
	flag.Parse()

	report.Table1(os.Stdout)

	if *designspace {
		fmt.Println()
		runDesignSpace()
	}
	if *mesh {
		fmt.Println()
		runMesh()
	}
}

// runDesignSpace replays Fig. 3: a phased load (low → high → low) on the
// 16-node system, sampling per-window supply power and aggregate link
// utilization for each of the four modes.
func runDesignSpace() {
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
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
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
}

func runMesh() {
	fmt.Println("Electrical 8x8 mesh baseline (same Spider-style routers, no optical SRS):")
	for _, rate := range []float64{0.002, 0.006, 0.012} {
		cfg := electrical.DefaultConfig()
		cfg.Rate = rate
		res, err := electrical.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  rate %.3f pkt/node/cyc: accepted %.5f, latency %.0f cycles (p95 %.0f)\n",
			rate, res.Throughput, res.AvgLatency, res.P95Latency)
	}
	fmt.Println("  E-RAPID at the same loads (uniform, NP-NB):")
	for _, rate := range []float64{0.002, 0.006, 0.012} {
		cfg := erapid.DefaultConfig(erapid.NPNB)
		cfg.InjectionRate = rate
		cfg.Load = 0
		res, err := erapid.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  rate %.3f pkt/node/cyc: accepted %.5f, latency %.0f cycles (p95 %.0f)\n",
			rate, res.Throughput, res.AvgLatency, res.P95Latency)
	}
}
