package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/optical"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// flatStats are the Result fields that a driver stepping a System by
// hand can read back through exported accessors. The traced run steps by
// hand (to put a span around every window), so this is the ground on
// which "traced and untraced Results are equal" is checked.
type flatStats struct {
	Cycles, Injected, Delivered uint64
	Truncated                   bool
	AvgLatency, P50, P95, P99   float64
	MaxLatency, AvgNetLatency   float64
	Samples                     int
	DynamicMW, SupplyMW         float64
	Ctrl                        ctrl.Counters
	Wakes                       uint64
}

func statsOfResult(r *core.Result) flatStats {
	return flatStats{
		Cycles: r.Cycles, Injected: r.Injected, Delivered: r.Delivered, Truncated: r.Truncated,
		AvgLatency: r.AvgLatency, P50: r.P50Latency, P95: r.P95Latency, P99: r.P99Latency,
		MaxLatency: r.MaxLatency, AvgNetLatency: r.AvgNetLatency, Samples: r.Samples,
		DynamicMW: r.PowerDynamicMW, SupplyMW: r.PowerSupplyMW, Ctrl: r.Ctrl, Wakes: r.Wakes,
	}
}

// tracedFlat runs one flat configuration the way System.RunContext does —
// window-sized StepN epochs to the drain's end, additionally cut where
// the measurement phase changes so that every epoch lies in one phase —
// with a span around NewSystem, Controllers().Start and every epoch
// (named by its phase), then reads the public counters. A serial System
// steps bit-identically whatever the epoch sizes.
func tracedFlat(cfg core.Config, tr *tracer, parent int) (flatStats, opMix, error) {
	sp := tr.begin("core.NewSystem", parent)
	sys, err := core.NewSystem(cfg)
	tr.end(sp)
	if err != nil {
		return flatStats{}, opMix{}, err
	}
	sp = tr.begin("ctrl.Start", parent)
	sys.Controllers().Start()
	tr.end(sp)

	top, fab, meas := sys.Topology(), sys.Fabric(), sys.Measurement()
	limit := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainLimitCycles
	window := cfg.Window
	var next, now uint64
	var litSum float64
	var litSamples int
	truncated := false
	measureAt, drainAt := cfg.WarmupCycles, cfg.WarmupCycles+cfg.MeasureCycles
	for {
		n := window - next%window
		if rem := limit + 1 - next; rem < n {
			n = rem
		}
		phase := "drain"
		switch {
		case next < measureAt:
			phase, n = "warmup", min(n, measureAt-next)
		case next < drainAt:
			phase, n = "measure", min(n, drainAt-next)
		}
		sp = tr.begin("core.StepN "+phase, parent)
		now = sys.StepN(n)
		tr.end(sp)
		next = now + 1
		if meas.Phase() == stats.Done {
			break
		}
		if now >= limit {
			truncated = true
			break
		}
		if next%window == 0 {
			var st optical.BoardStats
			lit := 0
			for b := 0; b < top.Boards(); b++ {
				fab.BoardStats(b, &st, nil)
				lit += st.Lit
			}
			litSum += float64(lit)
			litSamples++
		}
	}
	sys.Engine().Stop()

	meter := fab.Meter()
	fs := flatStats{
		Cycles: now, Injected: sys.InjectedCount(), Delivered: sys.DeliveredCount(), Truncated: truncated,
		AvgLatency: meas.Latency.Mean(), P50: meas.Latency.Quantile(0.50), P95: meas.Latency.Quantile(0.95),
		P99: meas.Latency.Quantile(0.99), MaxLatency: meas.Latency.Max(), AvgNetLatency: meas.NetLatency.Mean(),
		Samples: meas.Latency.N(), DynamicMW: meter.AvgDynamicMW(), SupplyMW: meter.AvgSupplyMW(),
		Ctrl: sys.Controllers().Counters(), Wakes: fab.Wakes(),
	}
	mix := opMix{
		cfg: cfg, cycles: now + 1, nodes: top.TotalNodes(), boards: top.Boards(),
		injected: fs.Injected, delivered: fs.Delivered, events: sys.Engine().Executed(), ctrl: fs.Ctrl,
	}
	for s := 0; s < top.Boards(); s++ {
		for w := 1; w <= top.Wavelengths(); w++ {
			for d := 0; d < top.Boards(); d++ {
				if l := fab.Laser(s, w, d); l != nil {
					mix.opticalSent += l.Sent()
					mix.transitions += l.Transitions()
				}
			}
		}
	}
	if litSamples > 0 {
		mix.litMean = litSum / float64(litSamples)
	}
	sys.Engine().Shutdown()
	sys.Close()
	return fs, mix, nil
}

// spanSeconds sums the duration of the spans whose name has the prefix.
func spanSeconds(spans []span, prefix string) float64 {
	var ns int64
	for _, s := range spans {
		if len(s.Name) >= len(prefix) && s.Name[:len(prefix)] == prefix {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// simDigest is the set of simulated statistics pinned per workload in
// expected/<workload>.json. They must repeat exactly for a given seed.
type simDigest struct {
	Seed             uint64  `json:"seed"`
	Cycles           uint64  `json:"cycles"`
	Injected         uint64  `json:"injected"`
	Delivered        uint64  `json:"delivered"`
	AvgLatency       float64 `json:"avg_latency"`
	PowerSupplyMW    float64 `json:"power_supply_mw"`
	Reassignments    uint64  `json:"reassignments"`
	LevelTransitions uint64  `json:"level_transitions"`
}

func digestOf(seed uint64, rs ...*core.Result) simDigest {
	d := simDigest{Seed: seed}
	for _, r := range rs {
		d.Cycles += r.Cycles
		d.Injected += r.Injected
		d.Delivered += r.Delivered
		d.AvgLatency += r.AvgLatency / float64(len(rs))
		d.PowerSupplyMW += r.PowerSupplyMW / float64(len(rs))
		d.Reassignments += r.Ctrl.Reassignments
		d.LevelTransitions += r.Ctrl.LevelUps + r.Ctrl.LevelDowns + r.Ctrl.Shutdowns + r.Wakes
	}
	return d
}

func (b *bench) expectedPath(w workload) string {
	return filepath.Join(b.root, "benchmark", "expected", w.name+".json")
}

// pinned returns the workload's pinned statistics when they were pinned
// for this run's seed, and nil otherwise (another seed, smoke sizes, or a
// missing file, which is reported).
func (b *bench) pinned(w workload) *simDigest {
	if b.smoke {
		return nil
	}
	data, err := os.ReadFile(b.expectedPath(w))
	if err != nil {
		b.logf("!! %s: no pinned statistics: %v", w.name, err)
		return nil
	}
	var want simDigest
	if err := json.Unmarshal(data, &want); err != nil {
		b.logf("!! %s: %s: %v", w.name, b.expectedPath(w), err)
		return nil
	}
	if want.Seed != b.seed {
		return nil
	}
	return &want
}

// digestChanged compares got with the pinned statistics, loudly, and
// returns 1 on a mismatch. It is not a failed operation: the simulator is
// allowed to change what it models, but never silently.
func (b *bench) digestChanged(w workload, got simDigest) float64 {
	want := b.pinned(w)
	if want == nil || *want == got {
		return 0
	}
	b.logf("!! %s: SIMULATED STATISTICS CHANGED for seed %d\n!!   pinned %+v\n!!   got    %+v\n!!   (not a failed op: re-pin with -update-expected if the model change is intended)",
		w.name, got.Seed, *want, got)
	return 1
}

func (b *bench) writeExpected(w workload, d simDigest) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(b.expectedPath(w), append(data, '\n'), 0o644)
}

// harnessDur is how long each standalone layer harness measures.
func (b *bench) harnessDur() time.Duration {
	if b.smoke {
		return 2 * time.Millisecond
	}
	return 120 * time.Millisecond
}

// steadyStep measures the engine's steady-state cost per cycle: after two
// warm windows, window-sized StepN epochs in the measurement phase. It
// also returns heap allocations and bytes per cycle over the same span.
func steadyStep(cfg core.Config, dur time.Duration) (nsPerCycle, allocs, bytesPer float64, err error) {
	cfg.WarmupCycles = 2 * cfg.Window
	cfg.MeasureCycles = 1 << 40
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	sys.Controllers().Start()
	sys.StepN(2 * cfg.Window)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var cycles uint64
	for cycles == 0 || time.Since(start) < dur {
		sys.StepN(cfg.Window)
		cycles += cfg.Window
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	sys.Engine().Stop()
	sys.Engine().Shutdown()
	sys.Close()
	c := float64(cycles)
	return float64(el.Nanoseconds()) / c, float64(m1.Mallocs-m0.Mallocs) / c, float64(m1.TotalAlloc-m0.TotalAlloc) / c, nil
}

// timeMedian returns the median wall-clock of n calls of f, in seconds.
func timeMedian(n int, f func() error) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

// telemetryOn runs cfg with the full telemetry pipeline attached (the
// per-window collector plus a JSONL event stream, as erapid -metrics-out
// -events-out does) and returns its wall-clock and the events emitted.
func telemetryOn(cfg core.Config) (wall float64, events uint64, err error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return 0, 0, err
	}
	jsonl := telemetry.NewJSONL(io.Discard)
	count := telemetry.SinkFunc(func(telemetry.Event) { events++ })
	t0 := time.Now()
	sys.EnableTelemetry(core.TelemetryConfig{EventCap: -1, Sinks: []telemetry.Sink{jsonl, count}})
	sys.Run()
	wall = time.Since(t0).Seconds()
	return wall, events, jsonl.Flush()
}

// layered is the traced measurement of one workload: every per-layer
// metric, the spans behind them, and the output checks of the traced run.
type layered struct {
	values map[string]float64
	spans  []span
	out    *outcome
	// digest is the workload's simulated statistics, as pinned.
	digest simDigest
	// budget is the ns-per-cycle row of every layer, for the table.
	budget map[string]float64
}

// budgetLayers are the rows of the ns-per-cycle budget, in print order.
// sim is listed but not summed: its events are the LS protocol's, already
// inside ctrl's row.
var budgetLayers = []string{"router", "link", "optical", "ctrl", "sim", "traffic", "stats", "telemetry"}

// traced runs one workload in-process through the public API with spans
// on, checks that tracing changed no result, replays the counted
// operation mix through the standalone layer harnesses, and assembles
// the per-layer metrics.
func (b *bench) traced(ctx context.Context, w workload) (*layered, error) {
	if err := b.ensureBuilt(ctx); err != nil {
		return nil, err
	}
	tr := newTracer(w.name)
	o := newOutcome()
	v := make(map[string]float64)
	root := tr.begin("workload "+w.name, 0)

	// The workload's flat layer system: untraced, traced, telemetry on.
	cfg := w.layer.config(b.seed)
	t0 := time.Now()
	plain, err := core.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: untraced run: %w", w.name, err)
	}
	flatUntraced := time.Since(t0).Seconds()
	flatSpan := tr.begin("core.flat", root)
	fs, mix, err := tracedFlat(cfg, tr, flatSpan)
	tr.end(flatSpan)
	if err != nil {
		return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
	}
	var bad []string
	if want := statsOfResult(plain); fs != want {
		bad = append(bad, fmt.Sprintf("%s: the traced run's result differs from the untraced run's:\n  traced   %+v\n  untraced %+v", w.name, fs, want))
	}
	bad = append(bad, checkSim(w.name+" (in-process)", simStatsOf(plain), 0, w.saturated || w.kind == kindSweep)...)
	if plain.DeliveredFraction != 1 && !plain.Truncated {
		bad = append(bad, fmt.Sprintf("%s: delivered fraction %v on a fault-free run", w.name, plain.DeliveredFraction))
	}
	o.op(bad)
	flatTraced := spanSeconds(tr.spans, "core.NewSystem") + spanSeconds(tr.spans, "ctrl.Start") + spanSeconds(tr.spans, "core.StepN")
	v["trace_overhead_share"] = flatTraced/flatUntraced - 1
	for _, phase := range []string{"warmup", "measure", "drain"} {
		v["core.phase_wall_s."+phase] = spanSeconds(tr.spans, "core.StepN "+phase)
	}
	digest := digestOf(b.seed, plain)

	telWall, telEvents, err := telemetryOn(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: telemetry-on run: %w", w.name, err)
	}

	// The workload's own run through the public API, traced and untraced;
	// then the fleet and service layers. A workload that does not itself
	// go through erapid-sweep or erapid-serve still sends its layer system
	// through both, as a two-job sweep and a one-of-each-class pass, so
	// every layer's metrics are measured at every workload's operation mix.
	v["core.run_s"] = flatUntraced
	var svc serviceLayer
	switch {
	case w.kind == kindRun && w.sim.Racks > 0:
		res, err := b.tracedHier(ctx, w, tr, root, o, v)
		if err != nil {
			return nil, err
		}
		digest = digestOf(b.seed, res)
	case w.kind == kindSweep:
		results, err := b.tracedSweep(ctx, w, tr, root, o, v)
		if err != nil {
			return nil, err
		}
		digest = digestOf(b.seed, results...)
	case w.kind == kindService:
		if svc, err = b.tracedService(ctx, w, tr, root, o, v); err != nil {
			return nil, err
		}
	}
	if w.kind != kindSweep {
		probe := sweep.Request{Base: cfg, Patterns: []string{cfg.Pattern}, Modes: []core.Mode{cfg.Mode},
			Loads: []float64{cfg.Load, cfg.Load / 2}, Workers: sweepWorkers}
		if _, _, err := timedSweep(ctx, probe, tr, root, v); err != nil {
			return nil, fmt.Errorf("%s: sweep of the layer system: %w", w.name, err)
		}
	}
	if w.kind != kindService {
		probe := workload{name: w.name, kind: kindService, sim: w.layer, layer: w.layer,
			mix: serviceMix{Cold: 1, Stream: 1, Cached: 8, DedupPairs: 1, Primed: 1}}
		st, po, err := b.servicePasses(ctx, probe, tr, "probe", 1)
		if err != nil {
			return nil, fmt.Errorf("%s: service pass of the layer system: %w", w.name, err)
		}
		o.merge(po)
		svc = st.layer()
	}
	svc.fill(v)

	v["core.sim_cycles"] = float64(digest.Cycles)
	v["core.sim_injected"] = float64(digest.Injected)
	v["core.sim_delivered"] = float64(digest.Delivered)
	v["core.sim_avg_latency"] = digest.AvgLatency
	v["core.sim_power_supply_mw"] = digest.PowerSupplyMW
	v["core.sim_reassignments"] = float64(digest.Reassignments)
	v["core.sim_level_transitions"] = float64(digest.LevelTransitions)
	v["core.sim_digest_changed"] = b.digestChanged(w, digest)

	// Engine-level timings of the layer system.
	dur := b.harnessDur()
	stepNS, allocs, bytesPer, err := steadyStep(cfg, 3*dur)
	if err != nil {
		return nil, err
	}
	v["core.step_ns_per_cycle"] = stepNS
	v["core.allocs_per_cycle"] = allocs
	v["core.bytes_per_cycle"] = bytesPer
	var pooled *core.System
	if v["core.new_system_s"], err = timeMedian(3, func() error {
		if pooled != nil {
			pooled.Close()
		}
		pooled, err = core.NewSystem(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	if v["core.reset_s"], err = timeMedian(3, func() error { return pooled.Reset(cfg) }); err != nil {
		return nil, err
	}
	pooled.Close()
	startup := filepath.Join(b.tmpDir, "startup.json")
	if v["cmd.startup_s"], err = timeMedian(15, func() error {
		_, errOut, _, err := runProc(ctx, b.tmpDir, b.bin("erapid"), "-dump-config", startup)
		if err != nil {
			return fmt.Errorf("erapid -dump-config: %w: %s", err, errOut)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// The standalone harnesses, fed the traced run's operation mix.
	board := benchBoard(mix, b.seed, dur)
	putFlit := benchSinkPutFlit(cfg, dur/2)
	opt, err := benchOptical(mix, b.seed, dur)
	if err != nil {
		return nil, err
	}
	lockstep, err := benchCtrl(mix, dur)
	if err != nil {
		return nil, err
	}
	decide, err := benchPolicy(cfg, dur/2)
	if err != nil {
		return nil, err
	}
	micro, err := benchMicro(mix, b.seed, dur/2)
	if err != nil {
		return nil, err
	}
	flits := float64(cfg.FlitsPerPacket())
	boards := float64(mix.boards)

	v["router.tick_ns"] = board.routerTickNS
	v["router.flits_per_cycle"] = mix.perCycle(mix.injected+mix.opticalSent) * flits
	v["router.ns_per_cycle"] = boards * board.routerTicks * board.routerTickNS
	v["link.source_tick_ns"] = board.sourceTickNS
	v["link.sink_putflit_ns"] = putFlit
	v["link.ns_per_cycle"] = boards * board.sourceTicks * board.sourceTickNS
	v["optical.tick_ns_per_cycle"] = opt.tickNS
	v["optical.idle_tick_ns"] = opt.idleTickNS
	v["optical.ff_idle_ns_per_cycle"] = opt.ffIdleNS
	v["optical.packets_per_cycle"] = mix.perCycle(mix.opticalSent)
	v["optical.lasers_lit_mean"] = mix.litMean
	v["optical.level_transitions"] = float64(mix.transitions)
	v["ctrl.window_ns"] = lockstep.windowNS
	v["ctrl.ns_per_cycle"] = lockstep.windowNS / float64(cfg.Window)
	v["ctrl.msgs_per_window"] = 0
	if n := mix.windows(); n > 0 {
		v["ctrl.msgs_per_window"] = float64(mix.ctrl.MessagesSent) / n
	}
	v["policy.decide_ns"] = decide
	v["sim.event_ns"] = micro.eventNS
	v["sim.process_switch_ns"] = micro.processSwitchNS
	v["sim.events_per_cycle"] = mix.perCycle(mix.events)
	v["sim.ns_per_cycle"] = mix.perCycle(mix.events) * micro.eventNS
	v["traffic.injector_step_ns"] = micro.injectorStepNS
	v["traffic.draws_per_cycle"] = float64(mix.nodes)
	v["traffic.ns_per_cycle"] = float64(mix.nodes) * micro.injectorStepNS
	v["rng.bernoulli_ns"] = micro.bernoulliNS
	v["stats.advance_ns"] = micro.advanceNS
	v["stats.ondeliver_ns"] = micro.onDeliverNS
	v["stats.ns_per_cycle"] = micro.advanceNS + mix.perCycle(mix.delivered)*micro.onDeliverNS
	v["telemetry.emit_ns"] = micro.emitNS
	v["telemetry.jsonl_emit_ns"] = micro.jsonlEmitNS
	v["telemetry.events_per_cycle"] = mix.perCycle(telEvents)
	v["telemetry.on_overhead_share"] = telWall/flatUntraced - 1
	// What the event stream would cost per cycle if it were on. It is on
	// only in service-mix, whose server records each job's events for
	// streaming, so only there does the row enter the budget's sum.
	v["telemetry.ns_per_cycle"] = mix.perCycle(telEvents) * micro.emitNS

	budget := make(map[string]float64)
	sum := 0.0
	for _, layer := range budgetLayers {
		name := layer + ".ns_per_cycle"
		if layer == "optical" {
			name = "optical.tick_ns_per_cycle"
		}
		budget[layer] = v[name]
		if layer == "telemetry" && w.kind != kindService {
			budget[layer] = 0
		}
		if layer != "sim" {
			sum += budget[layer]
		}
	}
	v["core.unattributed_share"] = 1 - sum/stepNS

	tr.end(root)
	return &layered{values: v, spans: tr.spans, out: o, digest: digest, budget: budget}, nil
}

// tracedHier runs the hierarchical workload twice through NewHier /
// RunContext, once under spans, and requires identical Results.
func (b *bench) tracedHier(ctx context.Context, w workload, tr *tracer, root int, o *outcome, v map[string]float64) (*core.Result, error) {
	cfg := w.sim.config(b.seed)
	run := func(tr *tracer) (*core.Result, float64, error) {
		t0 := time.Now()
		sp := tr.begin("core.NewHier", root)
		h, err := core.NewHier(cfg)
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		sp = tr.begin("core.Hier.RunContext", root)
		res, err := h.RunContext(ctx)
		tr.end(sp)
		return res, time.Since(t0).Seconds(), err
	}
	plain, untraced, err := run(nil)
	if err != nil {
		return nil, fmt.Errorf("%s: untraced hierarchical run: %w", w.name, err)
	}
	again, traced, err := run(tr)
	if err != nil {
		return nil, fmt.Errorf("%s: traced hierarchical run: %w", w.name, err)
	}
	var bad []string
	if !sameJSON(plain, again) {
		bad = append(bad, w.name+": the traced hierarchical Result differs from the untraced one")
	}
	bad = append(bad, checkSim(w.name+" (in-process)", simStatsOf(plain), 0, false)...)
	for _, t := range plain.Tiers {
		if t.PowerSupplyMW > t.SupplyBoundMW {
			bad = append(bad, fmt.Sprintf("%s: tier %d supply %v mW exceeds bound %v mW", w.name, t.Tier, t.PowerSupplyMW, t.SupplyBoundMW))
		}
		if t.DeliveredFraction != 1 {
			bad = append(bad, fmt.Sprintf("%s: tier %d delivered fraction %v on a fault-free run", w.name, t.Tier, t.DeliveredFraction))
		}
	}
	o.op(bad)
	v["core.run_s"] = untraced
	v["trace_overhead_share"] = traced/untraced - 1
	return plain, nil
}

func sameJSON(a, b any) bool {
	x, errA := json.Marshal(a)
	y, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(x, y)
}

// timedSweep runs one sweep in-process with an OnResult hook that
// timestamps every completion, and fills in the sweep layer's metrics. In
// a W-worker pool a job starts when an earlier one completes, so the
// multiset of start times is {t0 x W, every completion but the last W};
// pairing sorted starts with sorted completions gives each job's span,
// and the sum of their durations is exact whatever the pairing.
func timedSweep(ctx context.Context, req sweep.Request, tr *tracer, root int, v map[string]float64) ([]sweep.Series, float64, error) {
	var mu sync.Mutex
	var ends []time.Time
	req.OnResult = func(sweep.Series, sweep.Point) {
		now := time.Now()
		mu.Lock()
		ends = append(ends, now)
		mu.Unlock()
	}
	sp := tr.begin("sweep.RunContext", root)
	start := time.Now()
	series, err := sweep.RunContext(ctx, req)
	wall := time.Since(start).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	var jobs []float64
	var busy float64
	for i, end := range ends {
		begin := start
		if i >= req.Workers {
			begin = ends[i-req.Workers]
		}
		tr.add("sweep.job", sp, begin, end)
		jobs = append(jobs, end.Sub(begin).Seconds())
		busy += end.Sub(begin).Seconds()
	}
	v["sweep.job_wall_p50_s"] = median(jobs)
	v["sweep.worker_busy_share"] = busy / (float64(req.Workers) * wall)
	return series, wall, nil
}

// tracedSweep runs the workload's sweep in-process twice, plain and
// timed, and requires identical Results.
func (b *bench) tracedSweep(ctx context.Context, w workload, tr *tracer, root int, o *outcome, v map[string]float64) ([]*core.Result, error) {
	t0 := time.Now()
	plain, err := sweep.RunContext(ctx, w.sweepRequest(b.seed))
	if err != nil {
		return nil, fmt.Errorf("%s: untraced sweep: %w", w.name, err)
	}
	untraced := time.Since(t0).Seconds()
	again, wall, err := timedSweep(ctx, w.sweepRequest(b.seed), tr, root, v)
	if err != nil {
		return nil, fmt.Errorf("%s: traced sweep: %w", w.name, err)
	}
	v["core.run_s"] = untraced
	v["trace_overhead_share"] = wall/untraced - 1

	var bad []string
	if !sameJSON(plain, again) {
		bad = append(bad, w.name+": the traced sweep's Results differ from the untraced sweep's")
	}
	var results []*core.Result
	for _, s := range plain {
		for _, p := range s.Points {
			results = append(results, p.Result)
			bad = append(bad, checkSim(fmt.Sprintf("%s %s load %v", w.name, s.Label(), p.Load), simStatsOf(p.Result), 0, true)...)
		}
	}
	if len(results) != w.sweepJobs() {
		bad = append(bad, fmt.Sprintf("%s: %d of %d jobs reported", w.name, len(results), w.sweepJobs()))
	}
	o.op(bad)
	return results, nil
}

// serviceLayer holds the service rows; the zero value is what every
// workload without a server reports.
type serviceLayer struct {
	lat                    [numClasses][]float64
	submit                 []float64
	bytes, events          int
	queueWaitMean, runMean float64
	hits, misses, deduped  float64
	rejected               float64
}

func (s serviceLayer) fill(v map[string]float64) {
	v["service.submit_p50_s"] = median(s.submit)
	v["service.cold_latency_p50_s"] = median(s.lat[classCold])
	v["service.cold_latency_p95_s"] = percentile(s.lat[classCold], 95)
	v["service.cached_latency_p50_s"] = median(s.lat[classCached])
	v["service.cached_latency_p95_s"] = percentile(s.lat[classCached], 95)
	v["service.stream_latency_p50_s"] = median(s.lat[classStream])
	v["service.dedup_latency_p50_s"] = median(s.lat[classDedup])
	v["service.queue_wait_mean_s"] = s.queueWaitMean
	v["service.run_mean_s"] = s.runMean
	v["service.cache_hits"] = s.hits
	v["service.cache_misses"] = s.misses
	v["service.deduped"] = s.deduped
	v["service.rejected"] = s.rejected
	v["service.events_streamed"] = float64(s.events)
	v["service.stream_bytes"] = float64(s.bytes)
	// Means on both sides: the server's histograms give only sums and
	// counts, over every simulated job.
	v["service.http_overhead_s"] = 0
	if simulated := append(append([]float64(nil), s.lat[classCold]...), s.lat[classStream]...); len(simulated) > 0 {
		sum := 0.0
		for _, l := range simulated {
			sum += l
		}
		v["service.http_overhead_s"] = sum/float64(len(simulated)) - s.runMean - s.queueWaitMean
	}
}

// layer summarizes what the passes of a traced service run observed.
func (st *svcState) layer() serviceLayer {
	l := serviceLayer{lat: st.lat, submit: st.submit, bytes: st.bytes, events: st.events}
	d := st.prom
	l.hits = d["erapid_cache_hits_total"]
	l.misses = d["erapid_cache_misses_total"]
	l.deduped = d["erapid_jobs_deduped_total"]
	l.rejected = d[`erapid_submit_rejected_total{reason="queue_full"}`] + d[`erapid_submit_rejected_total{reason="draining"}`]
	if n := d["erapid_job_queue_wait_seconds_count"]; n > 0 {
		l.queueWaitMean = d["erapid_job_queue_wait_seconds_sum"] / n
	}
	if n := d[`erapid_job_run_seconds_count{kind="run"}`]; n > 0 {
		l.runMean = d[`erapid_job_run_seconds_sum{kind="run"}`] / n
	}
	return l
}

// tracePasses is how many passes of the schedule the traced service-mix
// run makes, so the per-class tails have a few dozen samples.
const tracePasses = 3

// servicePasses sets a service workload up and runs the given number of
// passes (under spans, with /metrics scraped around each, when tr is set).
func (b *bench) servicePasses(ctx context.Context, w workload, tr *tracer, name string, passes int) (*svcState, *outcome, error) {
	ref, err := b.reference(ctx, w)
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(b.tmpDir, name+"-")
	if err != nil {
		return nil, nil, err
	}
	st, err := b.setupService(ctx, w, dir, ref, tr)
	if err != nil {
		return nil, nil, err
	}
	po := newOutcome()
	for i := 0; i < passes; i++ {
		st.op(ctx, po)
	}
	st.close(po)
	return st, po, nil
}

// tracedService runs service-mix's passes twice, the second time traced,
// and requires the same result digest for every op of the last pass.
func (b *bench) tracedService(ctx context.Context, w workload, tr *tracer, root int, o *outcome, v map[string]float64) (serviceLayer, error) {
	passes := tracePasses
	if b.smoke {
		passes = 1
	}
	plain, plainOut, err := b.servicePasses(ctx, w, nil, "untraced", passes)
	if err != nil {
		return serviceLayer{}, fmt.Errorf("%s: untraced passes: %w", w.name, err)
	}
	again, tracedOut, err := b.servicePasses(ctx, w, tr, "traced", passes)
	if err != nil {
		return serviceLayer{}, fmt.Errorf("%s: traced passes: %w", w.name, err)
	}
	o.merge(plainOut)
	o.merge(tracedOut)
	var bad []string
	if fmt.Sprint(plain.digests) != fmt.Sprint(again.digests) {
		bad = append(bad, w.name+": the traced passes' result digests differ from the untraced passes'")
	}
	o.op(bad)
	v["trace_overhead_share"] = median(tracedOut.samples["run_wall_s"])/median(plainOut.samples["run_wall_s"]) - 1
	return again.layer(), nil
}
