package core

import (
	"fmt"
	"testing"

	"repro/internal/policy"
	"repro/internal/telemetry"
)

// runReset resets s to cfg, runs it, and returns the Result plus the
// telemetry stream (the same capture runWorkers does on a fresh
// system).
func runReset(t *testing.T, s *System, cfg Config) (*Result, []telemetry.Event) {
	t.Helper()
	if err := s.Reset(cfg); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	sink := &captureSink{}
	s.AttachSink(sink)
	res := s.Run()
	return res, sink.evs
}

// TestResetMatchesNewSystem is the pooled-reuse contract: a system
// Reset after a completed run produces a bit-identical Result and
// telemetry stream to a freshly constructed system, for every mode.
func TestResetMatchesNewSystem(t *testing.T) {
	for _, mode := range Modes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			cfg := fastConfig(mode)
			refRes, refEvs := runWorkers(t, cfg, 1)
			// Dirty the pooled system with a different seed first so the
			// reset has real state to rewind.
			dirty := cfg
			dirty.Seed = cfg.Seed + 17
			s, err := NewSystem(dirty)
			if err != nil {
				t.Fatal(err)
			}
			s.Run()
			res, evs := runReset(t, s, cfg)
			assertIdentical(t, "reset "+mode.String(), refRes, refEvs, res, evs)
		})
	}
}

// TestResetMidRun is the cancelled-job case: a pooled system abandoned
// with packets in flight everywhere — NIC queues, router buffers,
// reassembly buffers, laser queues, the delivery heap — and then Reset
// must be indistinguishable from a fresh NewSystem. A stale counter
// behind an active set would skip a component the fresh system ticks;
// a stale bit alone only buys a no-op visit, and TestIndexInvariant's
// check straight after each Reset is what catches that.
func TestResetMidRun(t *testing.T) {
	for _, workers := range []int{1, 2} {
		workers := workers
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			t.Parallel()
			cfg := fastConfig(PB)
			cfg.Workers = workers
			refRes, refEvs := runWorkers(t, cfg, workers)
			dirty := cfg
			dirty.Load = 0.9
			dirty.Seed = cfg.Seed + 17
			s, err := NewSystem(dirty)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.StepN(1500)
			if s.Quiescent() {
				t.Fatal("nothing in flight after 1500 cycles; the reset has no state to rewind")
			}
			res, evs := runReset(t, s, cfg)
			assertIdentical(t, "mid-run reset", refRes, refEvs, res, evs)
		})
	}
}

// TestResetReusedAcrossRuns replays one system through a mode change, a
// policy change, a faulted run and a seed change — the exact reuse
// pattern of the sweep and compare fleets — checking each run against a
// fresh system.
func TestResetReusedAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("several full runs")
	}
	base := fastConfig(PB)
	s, err := NewSystem(base)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	cfgs := []struct {
		label string
		cfg   Config
	}{
		{"mode", fastConfig(NPNB)},
		{"policy", func() Config {
			c := fastConfig(PB)
			c.Policy = &policy.Spec{Name: "greedy-off"}
			return c
		}()},
		{"faulted", func() Config {
			c := fastConfig(PB)
			c.Faults = faultSpec()
			return c
		}()},
		{"seed", func() Config {
			c := fastConfig(PNB)
			c.Seed = 99
			return c
		}()},
	}
	for _, tc := range cfgs {
		refRes, refEvs := runWorkers(t, tc.cfg, 1)
		res, evs := runReset(t, s, tc.cfg)
		assertIdentical(t, "reuse "+tc.label, refRes, refEvs, res, evs)
	}
}

// TestResetParallel covers reuse across worker counts: a serial system
// reset to a parallel config (fresh pool, fresh outboxes) and back.
func TestResetParallel(t *testing.T) {
	cfg := fastConfig(PB)
	refRes, refEvs := runWorkers(t, cfg, 1)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	par := cfg
	par.Workers = 4
	res, evs := runReset(t, s, par)
	assertIdentical(t, "reset to parallel", refRes, refEvs, res, evs)
	res, evs = runReset(t, s, cfg)
	assertIdentical(t, "reset back to serial", refRes, refEvs, res, evs)
}

// TestResetIncompatible pins the structural-compatibility boundary:
// slab-shaping fields reject, per-run fields accept.
func TestResetIncompatible(t *testing.T) {
	cfg := fastConfig(PB)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
	accept.Workers = 2
	if !s.ResetCompatible(accept) {
		t.Error("per-run field changes reported incompatible")
	}
	if err := s.Reset(accept); err != nil {
		t.Errorf("per-run field changes rejected: %v", err)
	}
	s.Close()
}
