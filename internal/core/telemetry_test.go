package core

import (
	"runtime"
	"testing"

	"repro/internal/telemetry"
)

// TestTelemetryCollector checks the per-window registry contents of a
// P-B complement run: window marks aligned with every series, sensible
// per-board channel accounting, and DPM/DBR activity visible.
func TestTelemetryCollector(t *testing.T) {
	cfg := fastConfig(PB)
	cfg.Pattern = "complement"
	cfg.Load = 0.7
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := s.EnableTelemetry(TelemetryConfig{})
	s.Run()

	reg := tel.Registry()
	marks := reg.Windows()
	if len(marks) < 4 {
		t.Fatalf("only %d windows sampled", len(marks))
	}
	for i := 1; i < len(marks); i++ {
		if marks[i].EndCycle-marks[i-1].EndCycle != cfg.Window {
			t.Fatalf("windows not R_w-aligned: %v", marks[:i+1])
		}
	}
	for _, name := range reg.SeriesNames() {
		if got := reg.Lookup(name).Len(); got != len(marks) {
			t.Errorf("series %s has %d samples, want %d (aligned with window marks)", name, got, len(marks))
		}
	}

	// Every (d,w) channel has exactly one holder, so per-board held
	// counts must sum to B*(B-1) in every window.
	b := cfg.Boards
	wantChannels := float64(b * (b - 1))
	held := make([][]float64, b)
	for bi := 0; bi < b; bi++ {
		held[bi] = reg.Lookup(seriesName(bi, "held_channels")).Values()
	}
	for wi := range marks {
		sum := 0.0
		for bi := 0; bi < b; bi++ {
			sum += held[bi][wi]
		}
		if sum != wantChannels {
			t.Fatalf("window %d: held channels sum to %v, want %v", wi, sum, wantChannels)
		}
	}

	// The recorder must have seen LS stages and packet lifecycle events;
	// a P-B complement run reconfigures, so laser-level transitions and
	// reassignments must be present too.
	rec := tel.Recorder()
	for _, k := range []telemetry.Kind{
		telemetry.PacketInject, telemetry.PacketDeliver, telemetry.StageEnter,
		telemetry.LaserLevel, telemetry.ChannelReassign, telemetry.PhaseChange,
	} {
		if rec.Count(k) == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}
	if rec.Count(telemetry.PhaseChange) < 3 {
		t.Errorf("expected >= 3 phase changes (warmup/measure/drain), got %d", rec.Count(telemetry.PhaseChange))
	}
}

func seriesName(board int, metric string) string {
	return "board" + string(rune('0'+board)) + "/" + metric
}

// TestTelemetryOffStepNoAllocs holds the disabled telemetry path to
// the steady-state allocation budget: no sink attached.
func TestTelemetryOffStepNoAllocs(t *testing.T) {
	assertStepAllocs(t, fastConfig(PB))
}

// assertStepAllocs counts over allocWindows R_w windows and allows
// allocSlack beyond the DBR holder maps for the occasional growth of a
// pooled free list or the event heap (3–8 over 20 windows of the 4×4
// fast config, in every mode and policy).
const allocWindows, allocSlack = 20, 16

// assertStepAllocs is the steady-state allocation gate: cfg is held in
// warm-up (latency sampling appends by design; finite, as the oracle's
// pre-pass simulates it) and stepped 20000 cycles, then heap allocations
// are counted over StepN(allocWindows·Window), window boundaries and LS
// protocol included. The budget is one holder map (the circulated assign
// slice) per board per DBR window plus allocSlack. testing.AllocsPerRun
// divides by calls and rounds down, so it misses an allocation every few
// hundred cycles; a count over the span does not.
func assertStepAllocs(t *testing.T, cfg Config) *System {
	t.Helper()
	cfg.WarmupCycles = 100000
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.StepN(20000)
	dbr := s.Controllers().Counters().BandwidthCyles
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.StepN(allocWindows * cfg.Window)
	runtime.ReadMemStats(&after)
	dbr = s.Controllers().Counters().BandwidthCyles - dbr
	if n := after.Mallocs - before.Mallocs; n > dbr+allocSlack {
		t.Errorf("%d allocations over %d windows; budget %d holder maps + %d", n, allocWindows, dbr, allocSlack)
	}
	return s
}
