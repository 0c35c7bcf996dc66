package cli

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// runCmd is `erapid [flags]`: one simulation, its metrics on stdout.
//
//	erapid -mode P-B -pattern complement -load 0.7
//	erapid -mode NP-NB -pattern uniform -load 0.5 -boards 4 -nodes 4
//	erapid -mode P-B -pattern complement -load 0.7 -trace | head -40
//	erapid -mode P-B -pattern complement -load 0.7 \
//	    -metrics-out run.metrics.jsonl -events-out run.events.jsonl \
//	    -perfetto run.trace.json -dashboard run.html
//	erapid -mode P-B -load 0.5 -tiers rack=8x8,count=16
func runCmd(args []string) error {
	f := newFlags("erapid", core.DefaultConfig(core.PB))
	f.Usage = func() {
		fmt.Fprintln(f.Output(), synopsis)
		f.PrintDefaults()
	}
	f.run()
	f.profile()
	var (
		lsTrace = f.Bool("trace", false, "print the Lock-Step protocol stage trace (Fig. 4)")
		dump    = f.String("dump-config", "", "write the effective config as JSON and exit")
		journey = f.Int("journey", 0, "after the run, print the traced journeys of N delivered packets")

		metricsOut = f.String("metrics-out", "", "write per-window metrics as JSON Lines to this file")
		eventsOut  = f.String("events-out", "", "stream telemetry events as JSON Lines to this file")
		perfetto   = f.String("perfetto", "", "write a Chrome trace_event JSON (Perfetto-loadable) to this file")
		dashboard  = f.String("dashboard", "", "write a per-window HTML dashboard to this file")
	)
	stop, err := f.parse(args)
	if err != nil {
		return err
	}
	defer stop()
	cfg := f.cfg

	if *dump != "" {
		// A saved config must load: write only one every run accepts.
		if err := cfg.Validate(); err != nil {
			return usageError{err}
		}
		if err := core.SaveConfig(*dump, cfg); err != nil {
			return err
		}
		fmt.Println("wrote", *dump)
		return nil
	}

	if cfg.MultiTier() {
		// The flat-engine introspection knobs have no hierarchical
		// equivalent yet; fail fast instead of silently ignoring them.
		for _, bad := range []struct {
			set  bool
			name string
		}{
			{*lsTrace, "-trace"},
			{*journey > 0, "-journey"},
			{*perfetto != "", "-perfetto"},
			{*dashboard != "", "-dashboard"},
		} {
			if bad.set {
				return usagef("%s is not supported with -tiers (flat runs only)", bad.name)
			}
		}
	}

	var runner core.Runner
	// -trace and -journey each read a kind-filtered recorder.
	var stageRec *telemetry.Recorder
	if *lsTrace {
		stageRec = telemetry.NewRecorder(1 << 20)
		stageRec.Filter = func(ev telemetry.Event) bool { return ev.Kind == telemetry.StageEnter }
		runner.AttachSink(stageRec)
	}
	var journeyRec *telemetry.Recorder
	if *journey > 0 {
		journeyRec = telemetry.NewRecorder(1 << 20)
		// The packet lifecycle plus DBR reassignments.
		journeyRec.Filter = func(ev telemetry.Event) bool { return ev.Kind <= telemetry.ChannelReassign }
		runner.AttachSink(journeyRec)
	}

	// Telemetry exports: a streaming JSONL event sink plus the per-window
	// metrics collector (whose recorder also feeds the Perfetto export).
	var eventsFile *os.File
	var events *telemetry.JSONL
	if *eventsOut != "" {
		if eventsFile, err = os.Create(*eventsOut); err != nil {
			return err
		}
		events = telemetry.NewJSONL(eventsFile)
		runner.AttachSink(events)
	}
	if *metricsOut != "" || *perfetto != "" || *dashboard != "" {
		tcfg := core.TelemetryConfig{}
		if *perfetto == "" {
			tcfg.EventCap = -1 // no in-memory recorder needed
		}
		runner.EnableTelemetry(tcfg)
	}

	// Ctrl-C / SIGTERM cancels the run at its next reconfiguration-window
	// boundary; the partial metrics of the completed prefix still print.
	ctx, stopSignals := signalContext()
	res, runErr := runner.RunContext(ctx, cfg)
	stopSignals()
	if runErr != nil {
		var cancelled *core.CancelledError
		if !errors.As(runErr, &cancelled) {
			// A run fails only by cancellation; anything else is a config
			// the engine could not assemble.
			return usageError{runErr}
		}
		fmt.Fprintf(os.Stderr, "cancelled by signal after %d windows; metrics cover the completed prefix\n", cancelled.Window)
	}
	if res.Tiers != nil {
		printHierResult(res, cfg)
	} else {
		printResult(res, cfg)
	}
	if stageRec != nil {
		fmt.Println("\nLock-Step protocol trace (cycle, board, stage):")
		for _, ev := range stageRec.Events() {
			fmt.Printf("  %8d  board %d  %s\n", ev.Cycle, ev.Board, ev.Label)
		}
	}
	if journeyRec != nil {
		printJourneys(journeyRec, *journey)
	}

	if eventsFile != nil {
		if err := closeFile(eventsFile, events.Flush()); err != nil {
			return err
		}
	}
	// -perfetto and -dashboard are flat-only, so tels[0] is the run's one
	// collector.
	tels := runner.Telemetries()
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{*metricsOut, func(w io.Writer) error {
			// One JSONL stream; a hierarchical run's tierN/rackM/ series
			// prefixes keep every subsystem's metrics distinguishable.
			for _, tel := range tels {
				if err := tel.Registry().WriteMetricsJSONL(w); err != nil {
					return err
				}
			}
			return nil
		}},
		{*perfetto, func(w io.Writer) error {
			return telemetry.WriteChromeTrace(w, tels[0].Recorder().Events(), tels[0].Registry(), cfg.CycleNS, cfg.Boards)
		}},
		{*dashboard, func(w io.Writer) error {
			title := fmt.Sprintf("E-RAPID %s, %s traffic, load %.2f — reconfiguration dashboard",
				res.Mode, res.Pattern, res.Load)
			return report.WriteDashboard(w, title, tels[0].Registry())
		}},
	} {
		if out.path == "" {
			continue
		}
		if err := writeFile(out.path, out.write); err != nil {
			return err
		}
	}
	return nil
}

// parseTiers parses the -tiers syntax "rack=BxD,count=R" into the
// two-tier Config.Tiers spec.
func parseTiers(s string) ([]core.TierSpec, error) {
	var b, d, r int
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-tiers: %q is not key=value (want rack=BxD,count=R)", part)
		}
		switch key {
		case "rack":
			bs, ds, ok := strings.Cut(val, "x")
			if !ok {
				return nil, fmt.Errorf("-tiers: rack=%q is not BxD", val)
			}
			var err error
			if b, err = strconv.Atoi(bs); err != nil {
				return nil, fmt.Errorf("-tiers: rack boards %q is not an integer", bs)
			}
			if d, err = strconv.Atoi(ds); err != nil {
				return nil, fmt.Errorf("-tiers: rack nodes %q is not an integer", ds)
			}
		case "count":
			var err error
			if r, err = strconv.Atoi(val); err != nil {
				return nil, fmt.Errorf("-tiers: count=%q is not an integer", val)
			}
		default:
			return nil, fmt.Errorf("-tiers: unknown key %q (want rack, count)", key)
		}
	}
	if b == 0 || d == 0 || r == 0 {
		return nil, errors.New("-tiers: need both rack=BxD and count=R")
	}
	return []core.TierSpec{{Boards: b, NodesPerBoard: d}, {Boards: r}}, nil
}

// printHierResult prints a multi-tier run: the aggregate plus the
// per-tier breakdown.
func printHierResult(r *core.Result, cfg core.Config) {
	t0 := cfg.Tiers[0]
	racks, rackNodes := cfg.Racks(), t0.Boards*t0.NodesPerBoard
	fmt.Printf("E-RAPID H(%d×R(1,%d,%d)), %d nodes (%d racks x %d) — %s, %s traffic\n",
		racks, t0.Boards, t0.NodesPerBoard, racks*rackNodes, racks, rackNodes, r.Mode, r.Pattern)
	if r.Policy != "" {
		fmt.Printf("  policy                %s\n", r.Policy)
	}
	fmt.Printf("  capacity N_c          %.5f pkt/node/cycle (uniform, analytic)\n", r.Capacity)
	fmt.Printf("  offered load          %.2f x N_c = %.5f pkt/node/cycle (measured %.5f)\n", r.Load, r.Rate, r.OfferedLoad)
	fmt.Printf("  accepted throughput   %.5f pkt/node/cycle (%.2f x N_c)\n", r.Throughput, r.NormalizedThroughput())
	fmt.Printf("  latency avg/p95       %.0f / %.0f cycles  (%d samples)\n",
		r.AvgLatency, r.P95Latency, r.Samples)
	fmt.Printf("  power dynamic/supply  %.1f / %.1f mW   (%.2f pJ/bit)\n",
		r.PowerDynamicMW, r.PowerSupplyMW, r.EnergyPerBitPJ)
	fmt.Printf("  simulated             %d cycles, injected %d, delivered %d",
		r.Cycles, r.Injected, r.Delivered)
	if r.Truncated {
		fmt.Printf(" [drain truncated: saturated]")
	}
	fmt.Println()
	for _, t := range r.Tiers {
		label := fmt.Sprintf("tier %d (fabric)", t.Tier)
		if t.Tier == 0 {
			label = fmt.Sprintf("tier %d (%d racks)", t.Tier, t.Systems)
		}
		fmt.Printf("  %-21s %.1f/%.1f mW supply (bound %.1f), lat %.0f, delivered %.4f, %d reassignments, %d ups/%d downs\n",
			label, t.PowerDynamicMW, t.PowerSupplyMW, t.SupplyBoundMW,
			t.AvgLatency, t.DeliveredFraction,
			t.Ctrl.Reassignments, t.Ctrl.LevelUps, t.Ctrl.LevelDowns)
	}
}

// printJourneys dumps the event journeys of the last n delivered packets
// still present in the recorder's ring.
func printJourneys(rec *telemetry.Recorder, n int) {
	evs := rec.Events()
	var ids []uint64
	seen := map[uint64]bool{}
	for i := len(evs) - 1; i >= 0 && len(ids) < n; i-- {
		if evs[i].Kind == telemetry.PacketDeliver && !seen[evs[i].Packet] {
			seen[evs[i].Packet] = true
			ids = append(ids, evs[i].Packet)
		}
	}
	fmt.Printf("\npacket journeys (%d of %d delivered in trace window):\n", len(ids), rec.Count(telemetry.PacketDeliver))
	for _, id := range ids {
		fmt.Println()
		for _, ev := range evs {
			if ev.Packet != id {
				continue
			}
			fmt.Printf("  %8d %-14s pkt#%-6d", ev.Cycle, ev.Kind, ev.Packet)
			if ev.Wavelength >= 0 {
				fmt.Printf(" board %d λ%d → %d", ev.Board, ev.Wavelength, ev.Dest)
			} else if ev.Board >= 0 {
				fmt.Printf(" board %d", ev.Board)
			}
			fmt.Println()
		}
	}
}

func printResult(r *core.Result, cfg core.Config) {
	fmt.Printf("E-RAPID R(1,%d,%d), %d nodes — %s, %s traffic\n",
		cfg.Boards, cfg.NodesPerBoard, cfg.Boards*cfg.NodesPerBoard, r.Mode, r.Pattern)
	if r.Policy != "" {
		// Only non-baseline runs print a policy line, keeping the default
		// output byte-identical to pre-policy builds.
		fmt.Printf("  policy                %s\n", r.Policy)
	}
	fmt.Printf("  capacity N_c          %.5f pkt/node/cycle (uniform, analytic)\n", r.Capacity)
	fmt.Printf("  offered load          %.2f x N_c = %.5f pkt/node/cycle (measured %.5f)\n", r.Load, r.Rate, r.OfferedLoad)
	fmt.Printf("  accepted throughput   %.5f pkt/node/cycle (%.2f x N_c)\n", r.Throughput, r.NormalizedThroughput())
	fmt.Printf("  latency avg/p50/p95   %.0f / %.0f / %.0f cycles  (%d samples)\n",
		r.AvgLatency, r.P50Latency, r.P95Latency, r.Samples)
	fmt.Printf("  power dynamic/supply  %.1f / %.1f mW   (%.2f pJ/bit)\n",
		r.PowerDynamicMW, r.PowerSupplyMW, r.EnergyPerBitPJ)
	fmt.Printf("  reconfiguration       %d reassignments (%d reclaims, %d failed), %d ring msgs\n",
		r.Ctrl.Reassignments, r.Ctrl.Reclaims, r.Ctrl.FailedMoves, r.Ctrl.MessagesSent)
	fmt.Printf("  power management      %d ups, %d downs, %d shutdowns, %d wakes\n",
		r.Ctrl.LevelUps, r.Ctrl.LevelDowns, r.Ctrl.Shutdowns, r.Wakes)
	if r.DegradedWindows != nil {
		f := r.Faults
		degraded := uint64(0)
		for _, w := range r.DegradedWindows {
			degraded += w
		}
		fmt.Printf("  faults                %d kills, %d degrades, %d sticks, %d ctrl drops, %d ctrl delays\n",
			f.LaserKills, f.LaserDegrades, f.LevelSticks, f.CtrlDrops, f.CtrlDelays)
		fmt.Printf("  availability          %.4f delivered fraction, %d dropped by fault, %d degraded board-windows, %d fault repairs\n",
			r.DeliveredFraction, r.DroppedByFault, degraded, r.Ctrl.FaultRepairs)
	}
	fmt.Printf("  simulated             %d cycles, injected %d, delivered %d",
		r.Cycles, r.Injected, r.Delivered)
	if r.Truncated {
		fmt.Printf(" [drain truncated: saturated]")
	}
	if r.Saturated() {
		fmt.Printf(" [beyond saturation]")
	}
	fmt.Println()
}
