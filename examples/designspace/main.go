// Designspace replays Fig. 3 of the paper: the four combinations of
// power-awareness and bandwidth-reconfigurability under a load that
// steps low → high → low, sampling per-window link utilization and
// supply power. NP modes hold power flat regardless of utilization;
// P modes track it, at the cost of bit-rate transition windows.
package main

import (
	"fmt"
	"log"
	"strings"

	erapid "repro"
)

const (
	window   = 1000
	nWindows = 18
	lightRt  = 0.002
	heavyRt  = 0.018
)

func main() {
	fmt.Println("Fig. 3 design space: 16-node system, phased load")
	fmt.Printf("windows 1-6 light (%.3f pkt/node/cyc), 7-12 heavy (%.3f), 13-18 light\n\n", lightRt, heavyRt)

	type trace struct {
		power []float64
		util  []float64
	}
	traces := map[erapid.Mode]*trace{}

	for _, mode := range erapid.Modes() {
		cfg := erapid.DefaultConfig(mode)
		cfg.Boards, cfg.NodesPerBoard = 4, 4
		cfg.Window = window
		cfg.InjectionRate = lightRt
		cfg.Load = 0

		sys, err := erapid.NewSystem(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fab := sys.Fabric()
		fab.EnableMetering(true)
		tr := &trace{}
		prevDelivered := uint64(0)
		for w := 0; w < nWindows; w++ {
			switch w {
			case 6:
				sys.SetInjectionRate(heavyRt)
			case 12:
				sys.SetInjectionRate(lightRt)
			}
			fab.Meter().Reset()
			for c := 0; c < window; c++ {
				sys.Step()
			}
			tr.power = append(tr.power, fab.Meter().AvgSupplyMW())
			// Aggregate utilization proxy: deliveries per window, scaled.
			d := sys.DeliveredCount()
			tr.util = append(tr.util, float64(d-prevDelivered)/window)
			prevDelivered = d
		}
		traces[mode] = tr
	}

	fmt.Printf("%-8s", "window")
	for _, m := range erapid.Modes() {
		fmt.Printf("  %14s", m)
	}
	fmt.Println()
	fmt.Printf("%-8s", "")
	for range erapid.Modes() {
		fmt.Printf("  %7s %6s", "mW", "thr")
	}
	fmt.Println()
	for w := 0; w < nWindows; w++ {
		fmt.Printf("%-8d", w+1)
		for _, m := range erapid.Modes() {
			tr := traces[m]
			fmt.Printf("  %7.1f %6.3f", tr.power[w], tr.util[w]*1000)
		}
		fmt.Println()
	}
	fmt.Println("\n(thr in packets/window/1000; sketch of each mode's power trace:)")
	for _, m := range erapid.Modes() {
		fmt.Printf("  %-6s %s\n", m, spark(traces[m].power))
	}
}

// spark renders a crude sparkline of a series.
func spark(xs []float64) string {
	glyphs := []rune("▁▂▃▄▅▆▇█")
	var max float64
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	if max == 0 {
		return strings.Repeat("▁", len(xs))
	}
	var b strings.Builder
	for _, x := range xs {
		i := int(x / max * float64(len(glyphs)-1))
		b.WriteRune(glyphs[i])
	}
	return b.String()
}
