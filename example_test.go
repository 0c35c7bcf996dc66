package erapid_test

import (
	"context"
	"fmt"
	"log"

	erapid "repro"
)

// Example runs the paper's Lock-Step network on the worst-case traffic
// pattern and reports whether bandwidth re-allocation engaged.
func Example() {
	cfg := erapid.DefaultConfig(erapid.PB)
	cfg.Boards, cfg.NodesPerBoard = 4, 4 // small system for a fast example
	cfg.Pattern = erapid.Complement
	cfg.Load = 0.8
	cfg.WarmupCycles = 4000
	cfg.MeasureCycles = 4000
	cfg.DrainLimitCycles = 60000
	res, err := erapid.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reconfigured:", res.Ctrl.Reassignments > 0)
	fmt.Println("delivered packets:", res.Delivered > 0)
	// Output:
	// reconfigured: true
	// delivered packets: true
}

// ExampleSweepContext produces one figure curve: P-B throughput across
// loads.
func ExampleSweepContext() {
	base := erapid.DefaultConfig(erapid.PB)
	base.Boards, base.NodesPerBoard = 4, 4
	base.WarmupCycles = 2000
	base.MeasureCycles = 2000
	base.DrainLimitCycles = 40000
	series, err := erapid.SweepContext(context.Background(), erapid.SweepRequest{
		Base:     base,
		Patterns: []string{erapid.Uniform},
		Modes:    []erapid.Mode{erapid.PB},
		Loads:    []float64{0.2, 0.4},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("series:", len(series))
	fmt.Println("points:", len(series[0].Points))
	// Output:
	// series: 1
	// points: 2
}

// ExampleSystem_Step drives a system cycle by cycle with per-window
// telemetry enabled, the building block for custom experiments.
func ExampleSystem_Step() {
	cfg := erapid.DefaultConfig(erapid.PNB)
	cfg.Boards, cfg.NodesPerBoard = 4, 4
	cfg.Window = 500
	cfg.Load = 0.3
	sys, err := erapid.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	tel := sys.EnableTelemetry(erapid.TelemetryConfig{})
	for i := 0; i < 2000; i++ {
		sys.Step()
	}
	fmt.Println("windows sampled:", len(tel.Registry().Windows()))
	// Output:
	// windows sampled: 4
}
