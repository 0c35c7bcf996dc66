package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// This file attacks the sharded commit with the serial-phase decisions
// that land between its compute parts: policy level flips and fault
// strikes mid-window, and injection-rate changes between StepN batches.
// In every case the w2 and w8 runs must reproduce the one-shard (w1)
// Result and telemetry stream byte for byte.

// TestSpeculationDiscardPolicyFlip runs the most flip-happy policy
// configuration — greedy-off with OffMax=1 shuts down every
// momentarily idle laser at each DPM decision point, so level moves
// land mid-window at LC-chain times throughout the run — and checks
// that the sharded commit, which replays the deferred side effects of
// cycles those serial-head decisions reshape, stays bit-identical to
// one shard.
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
// serial head between two sharded compute parts, and the drops it
// causes go through the per-board logs. The sharded engine must
// deliver, drop and account every packet exactly as one shard does.
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

// TestSetInjectionRateDiscardsStagedDraws changes the injection rate
// between StepN batches: the next cycle's draws, made in its serial
// head, must use the new rate at every worker count. The step-driven
// schedule changes the rate twice mid-run (mid-window both times) and
// the full telemetry stream plus the final state must match the
// one-shard reference at every worker count.
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
		s.StepN(1234) // mid-window
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
		t.Fatal("one-shard reference emitted no telemetry")
	}
	for _, workers := range []int{2, 8} {
		res, log := drive(workers)
		if d := divergence(refRes, refLog, res, log); d != "" {
			t.Errorf("workers=%d vs serial: %s", workers, d)
		}
	}
}
