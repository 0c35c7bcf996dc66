package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// telemetryRun executes one full run with a JSONL event stream and the
// per-window collector attached, returning the event bytes and the
// metrics dump.
func telemetryRun(t *testing.T, cfg Config) (events, metrics []byte) {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var evBuf bytes.Buffer
	jsonl := telemetry.NewJSONL(&evBuf)
	tel := s.EnableTelemetry(TelemetryConfig{Sinks: []telemetry.Sink{jsonl}})
	s.Run()
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}
	var metBuf bytes.Buffer
	if err := tel.Registry().WriteMetricsJSONL(&metBuf); err != nil {
		t.Fatal(err)
	}
	return evBuf.Bytes(), metBuf.Bytes()
}

// TestTelemetryDeterminism: two same-seed runs must emit byte-identical
// event streams and metric dumps. Telemetry is pure observation — any
// divergence means instrumentation perturbed the simulation or the
// encoders are order-unstable.
func TestTelemetryDeterminism(t *testing.T) {
	cfg := fastConfig(PB)
	cfg.Pattern = "complement"
	cfg.Load = 0.5
	cfg.Seed = 99

	evA, metA := telemetryRun(t, cfg)
	evB, metB := telemetryRun(t, cfg)
	if len(evA) == 0 {
		t.Fatal("no telemetry events emitted")
	}
	if !bytes.Equal(evA, evB) {
		t.Error("event streams of two same-seed runs differ")
	}
	if !bytes.Equal(metA, metB) {
		t.Errorf("metric dumps of two same-seed runs differ:\nfirst:\n%s\nsecond:\n%s", metA, metB)
	}
}

// TestTelemetryDoesNotPerturbResults: a run with the full telemetry
// pipeline attached, or with just a journey-filtered recorder (under
// which delivered packets are still recycled), must produce the same
// Result as one without, in every mode.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	attach := map[string]func(*System){
		"full pipeline": func(s *System) {
			s.EnableTelemetry(TelemetryConfig{Sinks: []telemetry.Sink{telemetry.NewJSONL(&bytes.Buffer{})}})
		},
		"journey recorder": func(s *System) {
			rec := telemetry.NewRecorder(1 << 16)
			rec.Filter = func(ev telemetry.Event) bool { return ev.Kind <= telemetry.ChannelReassign }
			s.AttachSink(rec)
		},
	}
	for _, mode := range Modes() {
		cfg := fastConfig(mode)
		cfg.Pattern = "complement"
		cfg.Load = 0.6
		cfg.Seed = 7

		plain, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, fn := range attach {
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fn(s)
			instrumented := s.Run()
			if !reflect.DeepEqual(plain, instrumented) {
				t.Errorf("%v: %s perturbed the run:\nplain:        %+v\ninstrumented: %+v", mode, name, plain, instrumented)
			}
		}
	}
}

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

// TestTelemetryOffStepNoAllocs asserts the disabled path of the
// telemetry layer adds no allocations to the steady-state cycle loop:
// with no sink attached, Step must be allocation-free once the packet
// pool is warm (the PR 1 hot-path invariant).
func TestTelemetryOffStepNoAllocs(t *testing.T) {
	cfg := fastConfig(PB)
	cfg.Load = 0.5
	// Stay in the warm-up phase for the whole test: measurement-phase
	// latency sampling appends to a growing slice by design.
	cfg.WarmupCycles = 1 << 30
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Controllers stay un-started: RC processes allocate protocol
	// messages at window boundaries, which is outside the per-cycle path
	// under test.
	for i := 0; i < 20000; i++ {
		s.Step()
	}
	allocs := testing.AllocsPerRun(2000, func() { s.Step() })
	if allocs != 0 {
		t.Errorf("telemetry-off Step allocates %.2f/op, want 0", allocs)
	}
}
