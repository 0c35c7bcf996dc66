package fault

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Counters aggregates everything the injector did to the system.
type Counters struct {
	// LaserKills / LaserDegrades / LaserRestores count laser fail-stop
	// events and recoveries (kills never recover).
	LaserKills    uint64
	LaserDegrades uint64
	LaserRestores uint64
	// LevelSticks / LevelUnsticks count DPM actuator faults.
	LevelSticks   uint64
	LevelUnsticks uint64
	// CtrlDrops / CtrlDelays count control-ring messages lost or slowed.
	CtrlDrops  uint64
	CtrlDelays uint64
}

// Injector drives a Spec against a fabric. It is deterministic: the
// schedule is applied at exact cycles, and the rate-based streams are
// derived from the spec seed, independent of the traffic RNG.
//
// The hot path is one comparison per cycle: Tick returns immediately
// until the precomputed wake cycle, so an idle injector costs nothing
// measurable and allocates nothing.
type Injector struct {
	spec   Spec
	fab    *optical.Fabric
	boards int
	window uint64

	degradeRng *rng.Stream
	ctrlRng    *rng.Stream

	sink telemetry.Sink
	ctr  Counters

	events    []Event // sorted by At, stable
	nextEvent int

	restores sim.Calendar[restore]

	outageUntil uint64

	// impaired[b] counts board b's lasers currently failed or stuck;
	// degradedWindows[b] counts reconfiguration windows during which the
	// board had at least one impaired laser.
	impaired        []int
	degradedWindows []uint64
	nextWindowAt    uint64

	wake uint64
}

// restore is a pending recovery of a transient fault.
type restore struct {
	board, wl, dst int
	unstick        bool // true: release a stuck actuator; false: restore a failed laser
}

// New builds an injector for the fabric. window is the reconfiguration
// window R_w (the cadence of rate-based faults and degraded-window
// accounting); runSeed seeds the random streams when the spec does not
// carry its own seed. The spec is validated against the fabric: every
// laser target must name a populated laser and every stick level must
// be an operating level of the fabric's ladder.
func New(fab *optical.Fabric, window, runSeed uint64, spec *Spec) (*Injector, error) {
	if spec == nil {
		return nil, fmt.Errorf("fault: nil spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if window == 0 {
		return nil, fmt.Errorf("fault: window must be >= 1")
	}
	b := fab.Topology().Boards()
	for i := range spec.Events {
		e := &spec.Events[i]
		switch e.Kind {
		case KindLaserKill, KindLaserDegrade, KindLevelStick:
			if e.Board >= b || e.Dest >= b || e.Wavelength >= b {
				return nil, fmt.Errorf("fault: event %d: laser (%d,λ%d→%d) out of range for %d boards", i, e.Board, e.Wavelength, e.Dest, b)
			}
			if !fab.CanHold(e.Board, e.Wavelength, e.Dest) {
				return nil, fmt.Errorf("fault: event %d: laser (%d,λ%d→%d) is not populated", i, e.Board, e.Wavelength, e.Dest)
			}
			if e.Kind == KindLevelStick && !fab.Config().Ladder.Operating(e.Level) {
				return nil, fmt.Errorf("fault: event %d: level %d is not an operating level", i, e.Level)
			}
		}
	}
	seed := spec.Seed
	if seed == 0 {
		seed = runSeed
	}
	master := rng.New(rng.Mix(seed, 0xfa017))
	in := &Injector{
		spec:            *spec,
		fab:             fab,
		boards:          b,
		window:          window,
		degradeRng:      master.Derive(1),
		ctrlRng:         master.Derive(2),
		events:          append([]Event(nil), spec.Events...),
		impaired:        make([]int, b),
		degradedWindows: make([]uint64, b),
		nextWindowAt:    window,
	}
	sort.SliceStable(in.events, func(i, j int) bool { return in.events[i].At < in.events[j].At })
	in.recomputeWake()
	return in, nil
}

// SetSink attaches the telemetry sink fault events are emitted to (nil
// disables emission).
func (in *Injector) SetSink(s telemetry.Sink) { in.sink = s }

// Counters returns the injector's action counts so far.
func (in *Injector) Counters() Counters { return in.ctr }

// DegradedWindows returns, per board, how many reconfiguration windows
// the board spent with at least one impaired (failed or stuck) laser.
func (in *Injector) DegradedWindows() []uint64 {
	return append([]uint64(nil), in.degradedWindows...)
}

// Tick advances the injector to the given cycle: it applies due
// scheduled events, performs due recoveries, closes reconfiguration
// windows, and sweeps rate-based degradation. Call once per cycle; the
// call is a single comparison until the next due action.
func (in *Injector) Tick(now uint64) {
	if now < in.wake {
		return
	}
	for in.nextEvent < len(in.events) && in.events[in.nextEvent].At <= now {
		in.apply(in.events[in.nextEvent], now)
		in.nextEvent++
	}
	for {
		_, r, ok := in.restores.PopDue(now)
		if !ok {
			break
		}
		in.applyRestore(r, now)
	}
	for now >= in.nextWindowAt {
		for b, n := range in.impaired {
			if n > 0 {
				in.degradedWindows[b]++
			}
		}
		if in.spec.LaserDegradeRate > 0 {
			in.sweepDegrade(now)
		}
		in.nextWindowAt += in.window
	}
	in.recomputeWake()
}

// recomputeWake sets the next cycle at which Tick has work.
func (in *Injector) recomputeWake() {
	wake := uint64(math.MaxUint64)
	if in.nextEvent < len(in.events) && in.events[in.nextEvent].At < wake {
		wake = in.events[in.nextEvent].At
	}
	if at, ok := in.restores.Next(); ok && at < wake {
		wake = at
	}
	if in.nextWindowAt < wake {
		wake = in.nextWindowAt
	}
	in.wake = wake
}

// impairment reports whether the laser currently counts as impaired.
func impairment(l *optical.Laser) bool { return l.Failed() || l.Stuck() }

// apply executes one scheduled event.
func (in *Injector) apply(e Event, now uint64) {
	switch e.Kind {
	case KindLaserKill:
		in.failLaser(e.Board, e.Wavelength, e.Dest, true, 0, "kill", now)
	case KindLaserDegrade:
		in.failLaser(e.Board, e.Wavelength, e.Dest, false, e.Duration, "degrade", now)
	case KindLevelStick:
		l := in.fab.Laser(e.Board, e.Wavelength, e.Dest)
		if l.Stuck() {
			return // already stuck; keep the first fault's restore schedule
		}
		was := impairment(l)
		in.fab.StickLaser(e.Board, e.Wavelength, e.Dest, e.Level, now)
		if !was {
			in.impaired[e.Board]++
		}
		in.ctr.LevelSticks++
		if e.Duration > 0 {
			in.restores.Push(now+e.Duration, restore{board: e.Board, wl: e.Wavelength, dst: e.Dest, unstick: true})
		}
		in.emit(telemetry.Event{Cycle: now, Kind: telemetry.LaserFail,
			Board: e.Board, Wavelength: e.Wavelength, Dest: e.Dest, Label: "stick"})
	case KindCtrlOutage:
		if end := e.At + e.Duration; end > in.outageUntil {
			in.outageUntil = end
		}
	}
}

// failLaser applies a kill or degrade to one laser. Faults on an
// already-failed laser are ignored (the first fault wins), keeping the
// restore schedule unambiguous.
func (in *Injector) failLaser(b, w, d int, permanent bool, duration uint64, label string, now uint64) {
	l := in.fab.Laser(b, w, d)
	if l.Failed() {
		return
	}
	was := impairment(l)
	in.fab.FailLaser(b, w, d, permanent, now)
	if !was {
		in.impaired[b]++
	}
	if permanent {
		in.ctr.LaserKills++
	} else {
		in.ctr.LaserDegrades++
		in.restores.Push(now+duration, restore{board: b, wl: w, dst: d})
	}
	in.emit(telemetry.Event{Cycle: now, Kind: telemetry.LaserFail,
		Board: b, Wavelength: w, Dest: d, Label: label})
}

// applyRestore executes one due recovery.
func (in *Injector) applyRestore(r restore, now uint64) {
	l := in.fab.Laser(r.board, r.wl, r.dst)
	was := impairment(l)
	label := "restore"
	if r.unstick {
		in.fab.UnstickLaser(r.board, r.wl, r.dst)
		in.ctr.LevelUnsticks++
		label = "unstick"
	} else {
		in.fab.RestoreLaser(r.board, r.wl, r.dst, now)
		in.ctr.LaserRestores++
	}
	if was && !impairment(l) {
		in.impaired[r.board]--
	}
	in.emit(telemetry.Event{Cycle: now, Kind: telemetry.LaserRestore,
		Board: r.board, Wavelength: r.wl, Dest: r.dst, Label: label})
}

// sweepDegrade draws one Bernoulli per populated laser, in canonical
// (s, w, d) order, failing the losers transiently. Drawing for every
// laser — healthy or not — keeps the stream's consumption independent
// of the fabric's fault state, so schedules compose deterministically.
func (in *Injector) sweepDegrade(now uint64) {
	for s := 0; s < in.boards; s++ {
		for w := 1; w < in.boards; w++ {
			for d := 0; d < in.boards; d++ {
				if !in.fab.CanHold(s, w, d) {
					continue
				}
				if !in.degradeRng.Bernoulli(in.spec.LaserDegradeRate) {
					continue
				}
				in.failLaser(s, w, d, false, in.spec.DegradeCycles, "degrade", now)
			}
		}
	}
}

// FilterRingMsg implements the control plane's RingFault hook: it is
// consulted once per RC→RC message and decides whether the message is
// lost or slowed. from and to are RC board indices.
func (in *Injector) FilterRingMsg(from, to int, now uint64) (drop bool, extraDelay uint64) {
	if now < in.outageUntil {
		in.ctr.CtrlDrops++
		in.emit(telemetry.Event{Cycle: now, Kind: telemetry.CtrlDrop,
			Board: from, Wavelength: -1, Dest: to, Label: "outage"})
		return true, 0
	}
	if in.spec.CtrlDropRate > 0 && in.ctrlRng.Bernoulli(in.spec.CtrlDropRate) {
		in.ctr.CtrlDrops++
		in.emit(telemetry.Event{Cycle: now, Kind: telemetry.CtrlDrop,
			Board: from, Wavelength: -1, Dest: to, Label: "drop"})
		return true, 0
	}
	if in.spec.CtrlDelayRate > 0 && in.ctrlRng.Bernoulli(in.spec.CtrlDelayRate) {
		in.ctr.CtrlDelays++
		in.emit(telemetry.Event{Cycle: now, Kind: telemetry.CtrlDelay,
			Board: from, Wavelength: -1, Dest: to})
		return false, in.spec.CtrlDelayCycles
	}
	return false, 0
}

// emit sends a telemetry event when a sink is attached.
func (in *Injector) emit(ev telemetry.Event) {
	if in.sink != nil {
		in.sink.Emit(ev)
	}
}
