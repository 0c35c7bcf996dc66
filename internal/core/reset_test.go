package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// TestResetIncompatible pins the structural-compatibility boundary:
// slab-shaping fields reject, per-run fields accept.
func TestResetIncompatible(t *testing.T) {
	cfg := fastConfig(PB)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reject := []struct {
		label  string
		mutate func(*Config)
	}{
		{"Boards", func(c *Config) { c.Boards = 8; c.NodesPerBoard = 2 }},
		{"NodesPerBoard", func(c *Config) { c.NodesPerBoard++ }},
		{"VCs", func(c *Config) { c.VCs++ }},
		{"PacketBytes", func(c *Config) { c.PacketBytes *= 2 }},
		{"LaserQueueCap", func(c *Config) { c.LaserQueueCap++ }},
		{"RelockCycles", func(c *Config) { c.RelockCycles++ }},
	}
	for _, tc := range reject {
		c := cfg
		tc.mutate(&c)
		if s.ResetCompatible(c) {
			t.Errorf("%s change reported compatible", tc.label)
		}
		if err := s.Reset(c); err == nil {
			t.Errorf("%s change accepted by Reset", tc.label)
		}
	}
	accept := cfg
	accept.Mode = NPNB
	accept.Window = cfg.Window * 2
	accept.Seed = 42
	if !s.ResetCompatible(accept) {
		t.Error("per-run field changes reported incompatible")
	}
	if err := s.Reset(accept); err != nil {
		t.Errorf("per-run field changes rejected: %v", err)
	}
}

// The two tests below are named for the speculative draw pipeline whose
// discard paths their scenarios were built to attack. Each now runs its
// scenario on a System Reset from a completed run of the plain fast
// config, which must reproduce the fresh run byte for byte.

// TestSpeculationDiscardPolicyFlip: greedy-off with OffMax=1 shuts down
// every momentarily idle laser at each DPM decision point, so level
// moves land mid-window throughout the run.
func TestSpeculationDiscardPolicyFlip(t *testing.T) {
	if testing.Short() {
		t.Skip("three full runs")
	}
	cfg := fastConfig(PB)
	cfg.Pattern, cfg.Load, cfg.Seed = traffic.Complement, 0.4, 99
	cfg.Policy = &policy.Spec{Name: "greedy-off", OffMax: 1}
	run := cell{cfg: cfg}
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
	res, evs := run.replayAfter(t, fastConfig(PB))
	if d := divergence(refRes, refEvs, res, evs); d != "" {
		t.Errorf("greedy-off after Reset vs fresh: %s", d)
	}
}

// TestSpeculationDiscardFaultMidWindow: laser faults strike at cycles
// that are not window boundaries, and the run must deliver, drop and
// account every packet as the fresh run does.
func TestSpeculationDiscardFaultMidWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("three full runs")
	}
	cfg := fastConfig(PB)
	cfg.Faults = &fault.Spec{
		Seed: 5,
		Events: []fault.Event{
			{At: 3737, Kind: fault.KindLaserKill, Board: 2, Wavelength: 1, Dest: 0},
			{At: 4444, Kind: fault.KindLaserDegrade, Board: 0, Wavelength: 3, Dest: 2, Duration: 300},
		},
	}
	run := cell{cfg: cfg}
	refRes, refEvs := run.replay(t)
	if refRes.Faults.LaserKills == 0 {
		t.Fatal("mid-window laser kill never applied; scenario no longer adversarial")
	}
	res, evs := run.replayAfter(t, fastConfig(PB))
	if d := divergence(refRes, refEvs, res, evs); d != "" {
		t.Errorf("mid-window faults after Reset vs fresh: %s", d)
	}
}

// replayAfter runs c as replay does, but on a System Reset from a
// completed run of prev.
func (c cell) replayAfter(t *testing.T, prev Config) (*Result, eventLog) {
	t.Helper()
	var log eventLog
	res, _ := c.run(t, resetAfterRun(t, prev, c.config()), &log)
	return res, log
}
