package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// This file pins the StepN stepping contract at its edges: the no-op
// batch, batches that cross measurement-phase and run-limit
// boundaries, batch-size invariance (including idle stretches split at
// batch seams), and stepping past Done. Every case runs at one shard
// and at several, which must agree exactly.

// TestStepNZero pins the no-op batch: StepN(0) returns the last
// simulated cycle and advances nothing — no cycle, no injector draw,
// no pool dispatch.
func TestStepNZero(t *testing.T) {
	for _, workers := range []int{1, 2} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := fastConfig(PB)
			cfg.Workers = workers
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := s.StepN(5); got != 4 {
				t.Fatalf("StepN(5) from cold = %d, want 4 (cycles 0..4)", got)
			}
			cyc, inj := s.Cycle(), s.InjectedCount()
			if got := s.StepN(0); got != cyc {
				t.Errorf("StepN(0) = %d, want last cycle %d", got, cyc)
			}
			if s.Cycle() != cyc || s.InjectedCount() != inj {
				t.Errorf("StepN(0) advanced state: cycle %d->%d, injected %d->%d",
					cyc, s.Cycle(), inj, s.InjectedCount())
			}
			if got := s.StepN(1); got != cyc+1 {
				t.Errorf("StepN(1) after StepN(0) = %d, want %d", got, cyc+1)
			}
		})
	}
}

// TestStepNStopsAtDone checks that a batch far larger than the run
// stops early when the measurement reaches Done — and that one shard
// and four stop on the identical cycle.
func TestStepNStopsAtDone(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs at two worker counts")
	}
	cfg := fastConfig(PB)
	const huge = 10_000_000
	stopAt := make(map[int]uint64)
	for _, workers := range []int{1, 4} {
		wcfg := cfg
		wcfg.Workers = workers
		s, err := NewSystem(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		last := s.StepN(huge)
		s.Close()
		if s.Measurement().Phase() != stats.Done {
			t.Fatalf("workers=%d: StepN(%d) returned at cycle %d in phase %v, want Done",
				workers, huge, last, s.Measurement().Phase())
		}
		if last >= huge-1 {
			t.Fatalf("workers=%d: StepN(%d) consumed the whole batch (cycle %d) instead of stopping at Done",
				workers, huge, last)
		}
		if got := s.Cycle(); got != last {
			t.Errorf("workers=%d: StepN returned %d but Cycle() = %d", workers, last, got)
		}
		stopAt[workers] = last
	}
	if stopAt[1] != stopAt[4] {
		t.Errorf("one shard stopped at cycle %d, four at %d; shard counts must agree", stopAt[1], stopAt[4])
	}
}

// TestStepNChunkInvariance drives identical runs with one giant batch,
// window-sized batches, and odd 97-cycle batches, at two shard counts. The
// telemetry stream and the final state must be bit-identical in
// all cases: batch seams must not perturb the simulation, including
// where they fall inside an idle stretch with nothing in flight, and
// where a single batch crosses the warmup/measure/drain boundaries that
// per-window stepping hits exactly. The low injection rate keeps the
// system idle for most of the run, so many seams land in such stretches.
func TestStepNChunkInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("six full runs")
	}
	drive := func(workers int, chunk uint64) (*Result, eventLog) {
		cfg := fastConfig(PB)
		cfg.InjectionRate = 0.002
		cfg.Workers = workers
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var log eventLog
		s.AttachSink(&log)
		limit := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainLimitCycles
		for s.Measurement().Phase() != stats.Done && s.Cycle() < limit {
			s.StepN(chunk)
		}
		s.Close()
		return s.result(s.Cycle(), false), log
	}
	refRes, refLog := drive(1, 10_000_000)
	if len(refLog) == 0 {
		t.Fatal("reference run emitted no telemetry")
	}
	for _, workers := range []int{1, 4} {
		for _, chunk := range []uint64{97, 500, 10_000_000} {
			if workers == 1 && chunk == 10_000_000 {
				continue // the reference itself
			}
			res, log := drive(workers, chunk)
			if d := divergence(refRes, refLog, res, log); d != "" {
				t.Errorf("workers=%d chunk=%d vs reference: %s", workers, chunk, d)
			}
		}
	}
}

// TestStepPastDone pins stepping beyond the end of the measurement
// methodology: once the phase is Done, Step and StepN keep advancing
// (exactly one cycle per call — StepN stops early while Done) without
// panicking or breaking packet conservation, so custom drivers may
// overrun the schedule harmlessly.
func TestStepPastDone(t *testing.T) {
	for _, workers := range []int{1, 2} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := fastConfig(PB)
			cfg.Workers = workers
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			limit := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainLimitCycles
			for s.Measurement().Phase() != stats.Done && s.Cycle() < limit {
				s.StepN(cfg.Window)
			}
			if s.Measurement().Phase() != stats.Done {
				t.Fatalf("run truncated at cycle %d before Done", s.Cycle())
			}
			for i := 0; i < 3; i++ {
				prev := s.Cycle()
				if got := s.Step(); got != prev+1 {
					t.Fatalf("Step() past Done = %d, want %d", got, prev+1)
				}
			}
			prev := s.Cycle()
			if got := s.StepN(10); got != prev+1 {
				t.Errorf("StepN(10) past Done = %d, want %d (stops after one cycle while Done)", got, prev+1)
			}
			if inj, del, drop := s.InjectedCount(), s.DeliveredCount(), s.DroppedByFault(); del+drop > inj {
				t.Errorf("conservation broken past Done: injected %d < delivered %d + dropped %d", inj, del, drop)
			}
		})
	}
}

// TestNewSystemReadyToStep: a constructed system is running — stepping
// it through two windows runs the LS protocol with no further set-up.
func TestNewSystemReadyToStep(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := fastConfig(PB)
		cfg.Pattern = "complement"
		cfg.Workers = workers
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.StepN(2*cfg.Window + 1)
		s.Close()
		if got := s.Controllers().Counters(); got.Windows != 2*uint64(cfg.Boards) || got.BandwidthCyles == 0 {
			t.Errorf("workers=%d: after two windows ctrl counters = %+v", workers, got)
		}
	}
}

// TestPhaseEventAtCycleZero: a quiet serial run's first event is the
// warm-up phase change, emitted while stepping cycle 0, before any
// injection or LS control event (none is scheduled at t = 0).
func TestPhaseEventAtCycleZero(t *testing.T) {
	cfg := fastConfig(PB)
	cfg.Load = 0.02
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var log eventLog
	s.AttachSink(&log)
	s.StepN(cfg.Window)
	if len(log) == 0 {
		t.Fatal("no events in the first window")
	}
	if ev := log[0]; ev.Cycle != 0 || ev.Kind != telemetry.PhaseChange || ev.Label != "warmup" {
		t.Fatalf("first event = %+v, want {cycle 0, phase, warmup}", ev)
	}
}

// TestSerialSystemOwnsNoGoroutines: a Workers <= 1 system starts no
// goroutine at any point of its life, so one that is stepped by hand and
// dropped leaks nothing; a parallel system's pool is gone after Close.
func TestSerialSystemOwnsNoGoroutines(t *testing.T) {
	// Closed pools' workers (earlier tests', and this test's own at
	// workers=2) need a moment to exit: let the baseline settle first.
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(time.Millisecond)
		base = min(base, runtime.NumGoroutine())
	}
	check := func(when string) {
		t.Helper()
		for i := 0; runtime.NumGoroutine() > base && i < 100; i++ {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s: %d goroutines, want <= %d", when, n, base)
		}
	}
	for _, workers := range []int{0, 1, 2} {
		cfg := fastConfig(PB)
		cfg.Workers = workers
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial := func(when string) {
			if workers <= 1 {
				check(fmt.Sprintf("workers=%d %s", workers, when))
			}
		}
		s.StepN(3 * cfg.Window)
		serial("after 3 windows")
		s.Run()
		serial("after Run")
		if err := s.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		s.StepN(cfg.Window)
		serial("after Reset + 1 window")
		s.Close()
		check(fmt.Sprintf("workers=%d after Close", workers))
	}
}
