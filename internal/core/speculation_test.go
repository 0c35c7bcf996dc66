package core

import (
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
	run := cell{cfg: cfg, v: variant{workers: 1}}
	refRes, refEvs := run.replay(t)
	flips := 0
	for _, ev := range refEvs {
		if ev.Kind == telemetry.LaserLevel {
			flips++
		}
	}
	if flips == 0 {
		t.Fatal("greedy-off/OffMax=1 flipped no laser levels; scenario no longer adversarial")
	}
	for _, w := range []int{2, 8} {
		run.v.workers = w
		res, evs := run.replay(t)
		if d := divergence(refRes, refEvs, res, evs); d != "" {
			t.Errorf("greedy-off workers=%d vs serial: %s", w, d)
		}
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
	run := cell{cfg: cfg, v: variant{workers: 1}}
	refRes, refEvs := run.replay(t)
	if refRes.Faults.LaserKills == 0 {
		t.Fatal("mid-window laser kill never applied; scenario no longer adversarial")
	}
	for _, w := range []int{2, 8} {
		run.v.workers = w
		res, evs := run.replay(t)
		if d := divergence(refRes, refEvs, res, evs); d != "" {
			t.Errorf("mid-window fault workers=%d vs serial: %s", w, d)
		}
	}
}

// TestSetInjectionRateDiscardsStagedDraws drives the explicit discard
// path: on a pipelined system every StepN leaves the next cycle's
// injections speculatively staged, and SetInjectionRate between
// batches must rewind those streams and redraw under the new rate —
// exactly what a serial system stepping past the call does. The
// step-driven schedule changes the rate twice mid-run (mid-window both
// times) and the full telemetry stream plus the final state must
// match the serial reference at every worker count.
func TestSetInjectionRateDiscardsStagedDraws(t *testing.T) {
	if testing.Short() {
		t.Skip("full step-driven runs at three worker counts")
	}
	drive := func(workers int) (*Result, eventLog) {
		cfg := fastConfig(PB)
		cfg.Workers = workers
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var log eventLog
		s.AttachSink(&log)
		s.StepN(1234) // mid-window: the pipelined path now holds staged draws for cycle 1234
		s.SetInjectionRate(0.09)
		s.StepN(777)
		s.SetInjectionRate(0.004)
		limit := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainLimitCycles
		for s.Measurement().Phase() != stats.Done && s.Cycle() < limit {
			s.Step()
		}
		s.Close()
		return s.result(s.Cycle(), false), log
	}
	refRes, refLog := drive(1)
	if len(refLog) == 0 {
		t.Fatal("serial reference emitted no telemetry")
	}
	for _, workers := range []int{2, 8} {
		res, log := drive(workers)
		if d := divergence(refRes, refLog, res, log); d != "" {
			t.Errorf("workers=%d vs serial: %s", workers, d)
		}
	}
}
