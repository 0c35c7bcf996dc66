// Sharded board ticking: the fabric side of the cycle loop.
//
// A cycle's fabric work is BeginBoardTick, then TickBoards over each
// shard's board range [lo, hi), then CommitBoardTick. When one caller
// ticks every board (Tick, or a one-shard system) the per-board logs are
// off and every side effect applies where it happens, so that sequence
// is the plain serial tick. With the logs on (EnableParallel), disjoint
// shards tick concurrently: board-local state — transmitter reassembly
// buffers, laser queues and windows, the board's active list, channel
// busy times (a channel has exactly one holder board, and holders only
// change in the serial control phase) — is mutated in place, and every
// side effect that touches shared, order-sensitive state is recorded in
// the board's log, segregated by the shared target it will be applied
// to:
//
//   - telemetry events and drop-hook calls feed ONE ordered stream
//     (the sink; the drop hook emits into it from the core layer) — so
//     the four event-bearing kinds share one append-only log per
//     sub-phase (txEvents, laserEvents), preserving their interleaving;
//   - idle-aggregate float deltas (refreshIdle): float addition is not
//     associative, so the deltas are computed in place but summed into
//     idleLitMW only at commit, in the serial order, one flat float
//     slice per sub-phase;
//   - power-meter samples (AddCycleMW): same float-ordering argument;
//   - delivery-heap pushes: the FIFO tiebreak seq is assigned at commit;
//   - auto-wake increments: a plain counter, so a per-board tally
//     suffices.
//
// The logs are flat slices of small per-kind records — no pointers to
// anything but the packet itself, no per-op closures — grouped in one
// cache-line-padded struct per board so two workers never write the
// same line. CommitBoardTick replays them in canonical order — all
// boards' tx sub-phase logs in ascending board order, then all laser
// sub-phase logs — which is exactly the order a single caller ticking
// every board produces those effects in, then takes the cycle's
// idle-power sample and runs the deactivation refreshes directly, for
// every board. The committed state and the emitted event stream are
// therefore bit-identical whatever the shard count. Distinct targets
// (telemetry stream, idle aggregate, meter, delivery heap, wake
// counter) never observe each other mid-cycle, so segregating them by
// kind commutes with the serial interleaving per board.
package optical

import (
	"repro/internal/flit"
	"repro/internal/telemetry"
)

// Sub-phase indices: the order sub-phases run within a tick and are
// replayed in at commit.
const (
	phaseTx = iota
	phaseLaser
	numPhases
)

// evOp is one record of the single ordered event stream (sink + drop
// hook), whose interleaving must be kept. kind names the telemetry
// event the record produces: PacketLaserEnqueue, PacketLaserTransmit
// and LaserLevel go to the sink; PacketDropFault goes to the drop hook,
// which accounts the loss before emitting the event itself. The source
// board is the log index and the cycle is the committing cycle, so
// neither is stored.
type evOp struct {
	p        *flit.Packet
	w, d     int32
	from, to int32
	kind     telemetry.Kind
}

// meterOp is one deferred power-meter sample.
type meterOp struct {
	mw   float64
	busy bool
}

// delOp is one deferred delivery-heap push: packet p arrives on channel
// (d, w) at cycle at.
type delOp struct {
	p    *flit.Packet
	at   uint64
	w, d int32
}

// boardLog is one board's deferred side effects for the in-flight
// cycle, owned exclusively by the board's worker during compute. The
// backing arrays are retained across cycles, so the steady state
// appends without allocating. The trailing pad keeps two boards' hot
// slice headers off any shared cache line (no false sharing between
// adjacent workers' appends).
type boardLog struct {
	txEvents    []evOp               // tx sub-phase event stream (drop, enqueue)
	laserEvents []evOp               // laser sub-phase event stream (transmit, level)
	idle        [numPhases][]float64 // refreshIdle deltas per sub-phase
	meter       []meterOp            // laser sub-phase meter samples
	deliver     []delOp              // laser sub-phase delivery pushes
	wakes       uint64               // auto-wake tally
	cur         uint8                // sub-phase selector for deferred appends
	_           [64]byte
}

// addIdle defers one idle-aggregate delta in the current sub-phase.
func (lg *boardLog) addIdle(delta float64) {
	lg.idle[lg.cur] = append(lg.idle[lg.cur], delta)
}

// fabPar is the fabric's parallel-stepping state: one log per board.
type fabPar struct {
	// computing marks an in-progress compute phase. It is written only by
	// the driving goroutine, before workers are dispatched and after they
	// join (the pool barriers provide the happens-before edges), so
	// workers read it race-free.
	computing bool
	logs      []boardLog
}

// deferring returns the parallel log set when a compute phase is in
// progress, nil otherwise (the serial fast path).
func (f *Fabric) deferring() *fabPar {
	if p := f.par; p != nil && p.computing {
		return p
	}
	return nil
}

// EnableParallel turns the per-board side-effect logs on or off. With
// them on, TickBoards calls on disjoint board ranges may run
// concurrently between BeginBoardTick and CommitBoardTick; with them
// off, one caller must tick every board. Serial phase only.
func (f *Fabric) EnableParallel(on bool) {
	switch {
	case !on:
		f.par = nil
	case f.par == nil:
		f.par = &fabPar{logs: make([]boardLog, f.top.Boards())}
	}
}

// BeginBoardTick opens a cycle's board ticks: until CommitBoardTick,
// every shared side effect is deferred into the per-board logs when
// they are on.
func (f *Fabric) BeginBoardTick() {
	if f.par != nil {
		f.par.computing = true
	}
}

// CommitBoardTick closes a cycle's board ticks: it replays the
// per-board logs when they are on, then samples the cycle's idle power
// and refreshes the idle contribution of the lasers that went idle this
// cycle, board by board.
func (f *Fabric) CommitBoardTick(now uint64) {
	if p := f.par; p != nil {
		f.replayLogs(p, now)
	}
	if f.meterEnabled {
		f.meter.AddCycleMW(f.idleLitMW, false)
		f.meter.Observe(1)
	}
	// Lasers deactivated this cycle were metered by tickLaser; they join
	// the idle aggregate only from the next cycle on.
	for s := range f.shards {
		f.flushDeact(s)
	}
}

// replayLogs ends the compute phase and replays every board's deferred
// side effects in the order a single caller produces them: tx
// sub-phases in ascending board order, then laser sub-phases in
// ascending board order. Within a board's sub-phase each shared target
// receives its records in the order they were produced; targets are
// mutually independent, so draining them back-to-back is
// order-equivalent to the serial interleaving.
func (f *Fabric) replayLogs(p *fabPar, now uint64) {
	p.computing = false
	for s := range p.logs {
		lg := &p.logs[s]
		if len(lg.txEvents) > 0 {
			f.replayEvents(s, lg.txEvents, now)
			lg.txEvents = lg.txEvents[:0]
		}
		f.drainIdle(lg, phaseTx)
	}
	for s := range p.logs {
		lg := &p.logs[s]
		if len(lg.laserEvents) > 0 {
			f.replayEvents(s, lg.laserEvents, now)
			lg.laserEvents = lg.laserEvents[:0]
		}
		f.drainIdle(lg, phaseLaser)
		for _, m := range lg.meter {
			f.meter.AddCycleMW(m.mw, m.busy)
		}
		lg.meter = lg.meter[:0]
		for i := range lg.deliver {
			dv := &lg.deliver[i]
			f.pushDelivery(dv.at, int(dv.d), int(dv.w), dv.p)
			dv.p = nil
		}
		lg.deliver = lg.deliver[:0]
		f.wakes += lg.wakes
		lg.wakes = 0
	}
}

// drainIdle folds one board sub-phase's deferred idle deltas into the
// shared aggregate, in record order.
func (f *Fabric) drainIdle(lg *boardLog, phase int) {
	for _, d := range lg.idle[phase] {
		f.idleLitMW += d
	}
	lg.idle[phase] = lg.idle[phase][:0]
}

// replayEvents applies one board sub-phase's event stream in record
// order, dropping packet references as it goes.
func (f *Fabric) replayEvents(s int, ops []evOp, now uint64) {
	for i := range ops {
		f.apply(s, ops[i], now)
		ops[i].p = nil
	}
}

// emit feeds one record of board s into the event stream: deferred into
// the board's current sub-phase log during a compute phase, applied
// immediately otherwise. Callers check the target (sink or drop hook)
// for nil first.
func (f *Fabric) emit(s int, op evOp, now uint64) {
	if dp := f.deferring(); dp != nil {
		if lg := &dp.logs[s]; lg.cur == phaseTx {
			lg.txEvents = append(lg.txEvents, op)
		} else {
			lg.laserEvents = append(lg.laserEvents, op)
		}
		return
	}
	f.apply(s, op, now)
}

// apply delivers one event-stream record of board s to its target.
func (f *Fabric) apply(s int, op evOp, now uint64) {
	if op.kind == telemetry.PacketDropFault {
		f.dropHook(op.p, now)
		return
	}
	ev := telemetry.Event{Cycle: now, Kind: op.kind, Board: s, Wavelength: int(op.w), Dest: int(op.d), From: int(op.from), To: int(op.to)}
	if op.p != nil {
		ev.Packet = uint64(op.p.ID)
	}
	f.sink.Emit(ev)
}

// assertSerialPhase panics when a control-plane mutation is attempted
// during a parallel compute phase. Reassignments, fault strikes and
// level changes from the LS controllers are pinned to the serial phases
// of the cycle (engine head and commit); reaching this check from a
// worker is a scheduling bug, not a recoverable condition.
func (f *Fabric) assertSerialPhase(op string) {
	if p := f.par; p != nil && p.computing {
		panic("optical: " + op + " during the parallel compute phase; control-plane mutations are pinned to the serial phases")
	}
}
