package core

import (
	"fmt"

	"repro/internal/ctrl"
	"repro/internal/flit"
	"repro/internal/optical"
	"repro/internal/telemetry"
)

// seriesCap is how many windows each telemetry time series retains
// (ring buffer).
const seriesCap = 4096

// TelemetryConfig parameterizes the event pipeline attached by
// EnableTelemetry. Metrics are sampled once per reconfiguration window
// R_w, so samples align with LS windows.
type TelemetryConfig struct {
	// EventCap is the in-memory event recorder's ring capacity; 0 means
	// 65536. Negative disables the recorder (streaming sinks only).
	EventCap int
	// Sinks are additional event consumers (e.g. a JSONL stream); they
	// receive every event alongside the recorder.
	Sinks []telemetry.Sink
	// prefix is prepended to every series name. Hierarchical runs label
	// each subsystem's series with its tier and instance (e.g.
	// "tier0/rack3/supply_mw", "tier1/supply_mw") so one exported
	// metrics stream stays unambiguous across tiers.
	prefix string
}

// Telemetry is the per-run observability state: a metrics registry
// sampled once per window, plus an optional in-memory event recorder.
type Telemetry struct {
	sys *System
	reg *telemetry.Registry
	rec *telemetry.Recorder

	window       uint64
	nextBoundary uint64
	index        uint64

	// Window-latency accumulation (fed by System.onDeliver).
	latSum   uint64
	latCount uint64

	// Previous-window snapshots for delta series.
	lastInjected   uint64
	lastDelivered  uint64
	lastCtrl       ctrl.Counters
	lastWakes      uint64
	lastSupplyInt  float64
	lastDynamicInt float64
	prevBusy       []uint64 // per board, cumulative tx busy cycles

	// Scratch reused every window.
	bstats      optical.BoardStats
	levelCounts []int

	// Cached series handles (avoid per-window map lookups).
	sInjectRate  *telemetry.TimeSeries
	sDeliverRate *telemetry.TimeSeries
	sAvgLatency  *telemetry.TimeSeries
	sSupplyMW    *telemetry.TimeSeries // meter-integrated (measurement interval)
	sDynamicMW   *telemetry.TimeSeries
	sInstMW      *telemetry.TimeSeries // instantaneous, from lit-laser levels
	sReassign    *telemetry.TimeSeries
	sReclaims    *telemetry.TimeSeries
	sLevelUps    *telemetry.TimeSeries
	sLevelDowns  *telemetry.TimeSeries
	sShutdowns   *telemetry.TimeSeries
	sWakes       *telemetry.TimeSeries
	sLevels      []*telemetry.TimeSeries // per ladder level, lit-channel occupancy
	sBoards      []boardSeries

	// Fault series (created only when the system has a fault injector).
	sFailedLasers *telemetry.TimeSeries
	sDropsFault   *telemetry.TimeSeries
	sFaultRepairs *telemetry.TimeSeries
	lastDropped   uint64
}

// boardSeries caches one board's per-window series handles.
type boardSeries struct {
	supplyMW *telemetry.TimeSeries
	held     *telemetry.TimeSeries
	lit      *telemetry.TimeSeries
	avgLevel *telemetry.TimeSeries
	txBusy   *telemetry.TimeSeries
	queued   *telemetry.TimeSeries
	ibiFlits *telemetry.TimeSeries
}

// EnableTelemetry attaches the unified telemetry layer: an in-memory
// event recorder (plus any cfg.Sinks) on the event pipeline, and a
// metrics registry sampled once per window. Must be called before
// stepping; returns the collector for post-run export.
func (s *System) EnableTelemetry(cfg TelemetryConfig) *Telemetry {
	if s.telemetry != nil {
		panic("core: telemetry already enabled")
	}
	if cfg.EventCap == 0 {
		cfg.EventCap = 1 << 16
	}
	t := &Telemetry{
		sys:          s,
		reg:          telemetry.NewRegistry(seriesCap),
		window:       s.cfg.Window,
		nextBoundary: s.cfg.Window,
	}
	if cfg.EventCap > 0 {
		t.rec = telemetry.NewRecorder(cfg.EventCap)
		s.AttachSink(t.rec)
	}
	for _, sink := range cfg.Sinks {
		s.AttachSink(sink)
	}
	t.buildSeries(cfg.prefix)
	s.telemetry = t
	return t
}

// buildSeries pre-creates every series, each name behind prefix, so the
// per-window sampling path is lookup-free and the registry's meta
// ordering is stable.
func (t *Telemetry) buildSeries(prefix string) {
	reg := func(name, unit string) *telemetry.TimeSeries {
		return t.reg.Series(prefix+name, unit)
	}
	t.sInjectRate = reg("inject_rate", "pkt/cycle")
	t.sDeliverRate = reg("deliver_rate", "pkt/cycle")
	t.sAvgLatency = reg("avg_latency", "cycles")
	t.sSupplyMW = reg("supply_mw", "mW")
	t.sDynamicMW = reg("dynamic_mw", "mW")
	t.sInstMW = reg("inst_supply_mw", "mW")
	t.sReassign = reg("reassignments", "1/window")
	t.sReclaims = reg("reclaims", "1/window")
	t.sLevelUps = reg("level_ups", "1/window")
	t.sLevelDowns = reg("level_downs", "1/window")
	t.sShutdowns = reg("shutdowns", "1/window")
	t.sWakes = reg("wakes", "1/window")
	if t.sys.faults != nil {
		t.sFailedLasers = reg("failed_lasers", "lasers")
		t.sDropsFault = reg("dropped_by_fault", "pkt/window")
		t.sFaultRepairs = reg("fault_repairs", "1/window")
	}

	ladder := t.sys.fab.Config().Ladder
	t.levelCounts = make([]int, ladder.Top()+1)
	t.sLevels = make([]*telemetry.TimeSeries, ladder.Top()+1)
	for lv := range t.sLevels {
		name := "level_off_channels"
		if lv > 0 {
			name = fmt.Sprintf("level%d_channels", lv)
		}
		t.sLevels[lv] = reg(name, "channels")
	}

	b := t.sys.top.Boards()
	t.prevBusy = make([]uint64, b)
	t.sBoards = make([]boardSeries, b)
	for bi := 0; bi < b; bi++ {
		p := fmt.Sprintf("board%d/", bi)
		t.sBoards[bi] = boardSeries{
			supplyMW: reg(p+"supply_mw", "mW"),
			held:     reg(p+"held_channels", "channels"),
			lit:      reg(p+"lit_lasers", "lasers"),
			avgLevel: reg(p+"avg_level", "level"),
			txBusy:   reg(p+"tx_busy", "lasers"),
			queued:   reg(p+"queued_pkts", "pkt"),
			ibiFlits: reg(p+"ibi_flits", "flits"),
		}
	}
}

// noteDelivery accumulates window latency; called from System.onDeliver
// only while telemetry is enabled.
func (t *Telemetry) noteDelivery(p *flit.Packet) {
	t.latSum += p.Latency()
	t.latCount++
}

// observe samples every series at window boundaries. Called once per
// cycle by System.step; all work happens on the boundary cycle, so the
// steady-state cost is one comparison.
func (t *Telemetry) observe(now uint64) {
	if now+1 < t.nextBoundary {
		return
	}
	t.nextBoundary += t.window
	endCycle := now + 1
	win := float64(t.window)
	s := t.sys

	t.sInjectRate.Push(float64(s.injected-t.lastInjected) / win)
	t.sDeliverRate.Push(float64(s.delivered-t.lastDelivered) / win)
	t.lastInjected, t.lastDelivered = s.injected, s.delivered

	lat := 0.0
	if t.latCount > 0 {
		lat = float64(t.latSum) / float64(t.latCount)
	}
	t.sAvgLatency.Push(lat)
	t.latSum, t.latCount = 0, 0

	// Meter-integrated power: deltas of the raw integrals, so this works
	// whether metering covers the whole run or just the measurement
	// interval, and survives an external Meter.Reset (negative delta →
	// re-base).
	supplyInt, dynamicInt, _ := s.fab.Meter().Integrals()
	if supplyInt < t.lastSupplyInt || dynamicInt < t.lastDynamicInt {
		t.lastSupplyInt, t.lastDynamicInt = 0, 0
	}
	t.sSupplyMW.Push((supplyInt - t.lastSupplyInt) / win)
	t.sDynamicMW.Push((dynamicInt - t.lastDynamicInt) / win)
	t.lastSupplyInt, t.lastDynamicInt = supplyInt, dynamicInt

	ctr := s.ctl.Counters()
	t.sReassign.Push(float64(ctr.Reassignments - t.lastCtrl.Reassignments))
	t.sReclaims.Push(float64(ctr.Reclaims - t.lastCtrl.Reclaims))
	t.sLevelUps.Push(float64(ctr.LevelUps - t.lastCtrl.LevelUps))
	t.sLevelDowns.Push(float64(ctr.LevelDowns - t.lastCtrl.LevelDowns))
	t.sShutdowns.Push(float64(ctr.Shutdowns - t.lastCtrl.Shutdowns))
	if t.sFaultRepairs != nil {
		t.sFaultRepairs.Push(float64(ctr.FaultRepairs - t.lastCtrl.FaultRepairs))
	}
	t.lastCtrl = ctr
	wakes := s.fab.Wakes()
	t.sWakes.Push(float64(wakes - t.lastWakes))
	t.lastWakes = wakes

	for lv := range t.levelCounts {
		t.levelCounts[lv] = 0
	}
	instMW := 0.0
	failed := 0
	for bi := range t.sBoards {
		s.fab.BoardStats(bi, &t.bstats, t.levelCounts)
		failed += t.bstats.Failed
		bs := &t.bstats
		sb := &t.sBoards[bi]
		sb.supplyMW.Push(bs.SupplyMW)
		instMW += bs.SupplyMW
		sb.held.Push(float64(bs.Held))
		sb.lit.Push(float64(bs.Lit))
		avg := 0.0
		if bs.Lit > 0 {
			avg = float64(bs.LevelSum) / float64(bs.Lit)
		}
		sb.avgLevel.Push(avg)
		sb.txBusy.Push(float64(bs.TxBusyCycles-t.prevBusy[bi]) / win)
		t.prevBusy[bi] = bs.TxBusyCycles
		sb.queued.Push(float64(bs.Queued))
		sb.ibiFlits.Push(float64(s.boards[bi].ibi.BufferedTotal()))
	}
	t.sInstMW.Push(instMW)
	for lv, n := range t.levelCounts {
		t.sLevels[lv].Push(float64(n))
	}
	if t.sFailedLasers != nil {
		t.sFailedLasers.Push(float64(failed))
		t.sDropsFault.Push(float64(s.droppedByFault - t.lastDropped))
		t.lastDropped = s.droppedByFault
	}

	t.index++
	t.reg.EndWindow(t.index, endCycle)

	t.reg.Counter("windows").Inc()
	t.reg.Gauge("injected").Set(float64(s.injected))
	t.reg.Gauge("delivered").Set(float64(s.delivered))
	t.reg.Gauge("reassignments").Set(float64(ctr.Reassignments))
	t.reg.Gauge("wakes").Set(float64(wakes))
}

// Registry returns the metrics registry.
func (t *Telemetry) Registry() *telemetry.Registry { return t.reg }

// Recorder returns the in-memory event recorder (nil when disabled via
// a negative EventCap).
func (t *Telemetry) Recorder() *telemetry.Recorder { return t.rec }
