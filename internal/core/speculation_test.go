package core

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// This file attacks the pipelined engine's speculative draw phase with
// the adversarial serial-phase decisions that could expose it: policy
// level flips and fault strikes that land on a cycle whose injections
// were already pre-drawn during the previous cycle's parallel section,
// and explicit injector mutations between epochs that must rewind the
// staged draws. In every case the pipelined run must reproduce the
// unpipelined (workers=1) Result and telemetry stream byte for byte.

// TestSpeculationDiscardPolicyFlip runs the most flip-happy policy
// configuration — greedy-off with OffMax=1 shuts down every
// momentarily idle laser at each DPM decision point, so level moves
// land mid-window at LC-chain times throughout the run — and checks
// that the pipelined engine, whose draw phase speculates straight past
// those serial-phase decisions, stays bit-identical to the serial one.
func TestSpeculationDiscardPolicyFlip(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs at three worker counts")
	}
	cfg := fastConfig(PB)
	cfg.Pattern = traffic.Complement
	cfg.Load = 0.4
	cfg.Seed = 99
	cfg.Policy = &policy.Spec{Name: "greedy-off", OffMax: 1}
	refRes, refEvs := runWorkers(t, cfg, 1)
	flips := 0
	for _, ev := range refEvs {
		if ev.Kind == telemetry.LaserLevel {
			flips++
		}
	}
	if flips == 0 {
		t.Fatal("greedy-off/OffMax=1 flipped no laser levels; scenario no longer adversarial")
	}
	for _, workers := range []int{2, 8} {
		res, evs := runWorkers(t, cfg, workers)
		assertIdentical(t, fmt.Sprintf("greedy-off workers=%d", workers), refRes, refEvs, res, evs)
	}
}

// TestSpeculationDiscardFaultMidWindow schedules laser faults at
// cycles that are not window boundaries, so each strike lands in the
// serial head of a cycle whose injector draws were staged
// speculatively one cycle earlier — the injections were drawn for a
// laser that is dead by the time they are admitted. The pipelined
// engine must deliver, drop and account them exactly as the serial
// engine does.
func TestSpeculationDiscardFaultMidWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("full faulted runs at three worker counts")
	}
	cfg := fastConfig(PB)
	cfg.Faults = &fault.Spec{
		Seed: 5,
		Events: []fault.Event{
			{At: 3737, Kind: fault.KindLaserKill, Board: 2, Wavelength: 1, Dest: 0},
			{At: 4444, Kind: fault.KindLaserDegrade, Board: 0, Wavelength: 3, Dest: 2, Duration: 300},
		},
	}
	refRes, refEvs := runWorkers(t, cfg, 1)
	if refRes.Faults.LaserKills == 0 {
		t.Fatal("mid-window laser kill never applied; scenario no longer adversarial")
	}
	for _, workers := range []int{2, 8} {
		res, evs := runWorkers(t, cfg, workers)
		assertIdentical(t, fmt.Sprintf("mid-window fault workers=%d", workers), refRes, refEvs, res, evs)
	}
}

// TestSetInjectionRateDiscardsStagedDraws drives the explicit discard
// path: on a pipelined system every StepN leaves the next cycle's
// injections speculatively staged, and SetInjectionRate between
// batches must rewind those streams and redraw under the new rate —
// exactly what a serial system stepping past the call does. The
// step-driven schedule changes the rate twice mid-run (mid-window both
// times) and the full telemetry stream plus the packet counters must
// match the serial reference at every worker count.
func TestSetInjectionRateDiscardsStagedDraws(t *testing.T) {
	if testing.Short() {
		t.Skip("full step-driven runs at three worker counts")
	}
	drive := func(workers int) ([]uint64, *captureSink) {
		cfg := fastConfig(PB)
		cfg.Workers = workers
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sink := &captureSink{}
		s.AttachSink(sink)
		s.StepN(1234) // mid-window: the pipelined path now holds staged draws for cycle 1234
		s.SetInjectionRate(0.09)
		s.StepN(777)
		s.SetInjectionRate(0.004)
		limit := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainLimitCycles
		for s.Measurement().Phase() != stats.Done && s.Cycle() < limit {
			s.Step()
		}
		s.Close()
		return []uint64{s.Cycle(), s.InjectedCount(), s.DeliveredCount()}, sink
	}
	refState, refSink := drive(1)
	if len(refSink.evs) == 0 {
		t.Fatal("serial reference emitted no telemetry")
	}
	for _, workers := range []int{2, 8} {
		state, sink := drive(workers)
		label := fmt.Sprintf("workers=%d", workers)
		for i, name := range []string{"cycle", "injected", "delivered"} {
			if state[i] != refState[i] {
				t.Errorf("%s: final %s %d, serial %d", label, name, state[i], refState[i])
			}
		}
		if len(sink.evs) != len(refSink.evs) {
			t.Fatalf("%s: %d telemetry events, serial %d", label, len(sink.evs), len(refSink.evs))
		}
		for i := range refSink.evs {
			if sink.evs[i] != refSink.evs[i] {
				t.Fatalf("%s: event %d diverges\nserial: %+v\ngot:    %+v", label, i, refSink.evs[i], sink.evs[i])
			}
		}
	}
}
