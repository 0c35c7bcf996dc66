package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// TestResetToAnyShape: Reset rebuilds through NewSystem's path, so a
// system that completed a run resets to any valid single-tier config —
// a new topology, router shape, packet format or fabric shape as well
// as per-run changes — and then runs exactly as NewSystem builds it. A
// rejected config (invalid, or multi-tier) errors and leaves the system
// as it was, and the next valid Reset is again a fresh system.
func TestResetToAnyShape(t *testing.T) {
	base := fastConfig(PB)
	base.WarmupCycles, base.MeasureCycles = 1500, 1500
	s, err := NewSystem(base)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	for _, tc := range []struct {
		label  string
		mutate func(*Config)
	}{
		{"Boards", func(c *Config) { c.Boards = 8; c.NodesPerBoard = 2 }},
		{"NodesPerBoard", func(c *Config) { c.NodesPerBoard++ }},
		{"VCs", func(c *Config) { c.VCs++ }},
		{"PacketBytes", func(c *Config) { c.PacketBytes *= 2 }},
		{"LaserQueueCap", func(c *Config) { c.LaserQueueCap++ }},
		{"RelockCycles", func(c *Config) { c.RelockCycles++ }},
		{"per-run", func(c *Config) { c.Mode = NPNB; c.Window *= 2; c.Seed = 42 }},
	} {
		cfg := base
		tc.mutate(&cfg)
		if err := s.Reset(cfg); err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		checkFresh(t, tc.label, s, cfg)
	}

	invalid := base
	invalid.VCs = 0
	cycle, injected := s.Cycle(), s.InjectedCount()
	for label, cfg := range map[string]Config{"VCs=0": invalid, "multi-tier": hierTestConfig(2, 2, 2)} {
		if err := s.Reset(cfg); err == nil {
			t.Errorf("%s: Reset accepted it", label)
		}
		if s.Cycle() != cycle || s.InjectedCount() != injected {
			t.Errorf("%s: the rejected Reset changed the system", label)
		}
	}
	if err := s.Reset(base); err != nil {
		t.Fatal(err)
	}
	checkFresh(t, "after rejected Resets", s, base)
}

// checkFresh runs s, which was just Reset to cfg, and compares its
// Result and event stream with a run on NewSystem(cfg).
func checkFresh(t *testing.T, label string, s *System, cfg Config) {
	t.Helper()
	c := cell{cfg: cfg}
	c.v.obs = obsEvents
	var log eventLog
	res, _ := c.run(t, s, &log)
	refRes, refEvs := c.replay(t)
	if len(log) == 0 || res.Delivered == 0 {
		t.Errorf("%s: the run emitted %d events and delivered %d packets", label, len(log), res.Delivered)
	}
	if d := divergence(refRes, refEvs, res, log); d != "" {
		t.Errorf("%s: Reset vs NewSystem: %s", label, d)
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
