package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// This file pins the StepN stepping contract at its edges: the no-op
// batch, batches that cross measurement-phase and run-limit
// boundaries, batch-size invariance (including idle stretches split at
// batch seams), stepping past Done, and Close between batches.

// subtests names the System a case runs on, by the names the cases had
// when the second ran on two workers: workers=1 is fresh, workers=2 is
// Reset from a completed run.
var subtests = []struct {
	name  string
	reset bool
}{{"workers=1", false}, {"workers=2", true}}

// newSubtestSystem makes a System for cfg as the subtest says.
func newSubtestSystem(t *testing.T, cfg Config, reset bool) *System {
	t.Helper()
	if reset {
		return resetAfterRun(t, cfg, cfg)
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// resetAfterRun returns a System that completed a run of prev and was
// then Reset to cfg.
func resetAfterRun(t *testing.T, prev, cfg Config) *System {
	t.Helper()
	s, err := NewSystem(prev)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if err := s.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStepNZero pins the no-op batch: StepN(0) returns the last
// simulated cycle and advances nothing — no cycle, no injector draw.
func TestStepNZero(t *testing.T) {
	for _, st := range subtests {
		t.Run(st.name, func(t *testing.T) {
			s := newSubtestSystem(t, fastConfig(PB), st.reset)
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
// stops early when the measurement reaches Done, on the cycle Run
// stops on.
func TestStepNStopsAtDone(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs")
	}
	cfg := fastConfig(PB)
	const huge = 10_000_000
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := s.StepN(huge)
	if s.Measurement().Phase() != stats.Done {
		t.Fatalf("StepN(%d) returned at cycle %d in phase %v, want Done", huge, last, s.Measurement().Phase())
	}
	if last >= huge-1 {
		t.Fatalf("StepN(%d) consumed the whole batch (cycle %d) instead of stopping at Done", huge, last)
	}
	if got := s.Cycle(); got != last {
		t.Errorf("StepN returned %d but Cycle() = %d", last, got)
	}
	if r := mustRun(t, cfg); r.Cycles != last {
		t.Errorf("StepN stopped at cycle %d, Run at cycle %d", last, r.Cycles)
	}
}

// TestStepNChunkInvariance drives identical runs with one giant batch,
// window-sized batches, and odd 97-cycle batches. The telemetry stream
// and the final state must be bit-identical in all cases: batch seams
// must not perturb the simulation, including where they fall inside an
// idle stretch with nothing in flight, and where a single batch crosses
// the warmup/measure/drain boundaries that per-window stepping hits
// exactly. The low injection rate keeps the system idle for most of the
// run, so many seams land in such stretches.
func TestStepNChunkInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("three full runs")
	}
	drive := func(chunk uint64) (*Result, eventLog) {
		cfg := fastConfig(PB)
		cfg.InjectionRate = 0.002
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
		return s.result(s.Cycle(), false), log
	}
	refRes, refLog := drive(10_000_000)
	if len(refLog) == 0 {
		t.Fatal("reference run emitted no telemetry")
	}
	for _, chunk := range []uint64{97, 500} {
		res, log := drive(chunk)
		if d := divergence(refRes, refLog, res, log); d != "" {
			t.Errorf("chunk=%d vs reference: %s", chunk, d)
		}
	}
}

// TestSetInjectionRateDiscardsStagedDraws changes the injection rate
// between StepN batches, mid-window both times: the draws of the next
// cycle must use the new rate whatever the batch shape, so the batched
// run and one stepped a cycle at a time emit the same telemetry stream
// and end in the same state, and each rate shows in the injections of
// its stretch.
func TestSetInjectionRateDiscardsStagedDraws(t *testing.T) {
	if testing.Short() {
		t.Skip("two full step-driven runs")
	}
	drive := func(batched bool) (*Result, eventLog) {
		cfg := fastConfig(PB)
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var log eventLog
		s.AttachSink(&log)
		steps := func(n uint64) {
			if batched {
				s.StepN(n)
				return
			}
			for range n {
				s.Step()
			}
		}
		steps(1234) // mid-window
		s.SetInjectionRate(0.09)
		steps(777)
		s.SetInjectionRate(0.004)
		limit := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainLimitCycles
		for s.Measurement().Phase() != stats.Done && s.Cycle() < limit {
			s.Step()
		}
		return s.result(s.Cycle(), false), log
	}
	refRes, refLog := drive(true)
	var high, low int // injections in [1234, 2011) and [2011, 2788)
	for _, ev := range refLog {
		if ev.Kind == telemetry.PacketInject && ev.Cycle >= 1234 && ev.Cycle < 2788 {
			if ev.Cycle < 2011 {
				high++
			} else {
				low++
			}
		}
	}
	if high < 10*low {
		t.Fatalf("%d injections at rate 0.09, %d at 0.004 over as many cycles: a rate change did not take effect", high, low)
	}
	res, log := drive(false)
	if d := divergence(refRes, refLog, res, log); d != "" {
		t.Errorf("stepped a cycle at a time vs in batches: %s", d)
	}
}

// TestStepPastDone pins stepping beyond the end of the measurement
// methodology: once the phase is Done, Step and StepN keep advancing
// (exactly one cycle per call — StepN stops early while Done) without
// panicking or breaking packet conservation, so custom drivers may
// overrun the schedule harmlessly.
func TestStepPastDone(t *testing.T) {
	for _, st := range subtests {
		t.Run(st.name, func(t *testing.T) {
			cfg := fastConfig(PB)
			s := newSubtestSystem(t, cfg, st.reset)
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
	cfg := fastConfig(PB)
	cfg.Pattern = "complement"
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.StepN(2*cfg.Window + 1)
	if got := s.Controllers().Counters(); got.Windows != 2*uint64(cfg.Boards) || got.BandwidthCyles == 0 {
		t.Errorf("after two windows ctrl counters = %+v", got)
	}
}

// TestCloseMidRunSteps pins that Close is a no-op: a run that is
// stepped, closed and stepped on is bit-identical to the same steps
// uninterrupted — Result and event stream.
func TestCloseMidRunSteps(t *testing.T) {
	drive := func(close bool) (*Result, eventLog) {
		cfg := fastConfig(PB)
		cfg.Boards, cfg.NodesPerBoard = 8, 8
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var log eventLog
		s.AttachSink(&log)
		s.StepN(300)
		if close {
			s.Close()
		}
		now := s.StepN(2000)
		return s.result(now, false), log
	}
	refRes, refLog := drive(false)
	res, log := drive(true)
	if d := divergence(refRes, refLog, res, log); d != "" {
		t.Errorf("closed mid-run vs uninterrupted: %s", d)
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

// TestSerialSystemOwnsNoGoroutines: a system starts no goroutine at
// any point of its life, so one that is stepped by hand and dropped
// leaks nothing.
func TestSerialSystemOwnsNoGoroutines(t *testing.T) {
	// Goroutines of earlier tests may still be exiting: let the baseline
	// settle first.
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
	cfg := fastConfig(PB)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.StepN(3 * cfg.Window)
	check("after 3 windows")
	s.Run()
	check("after Run")
	if err := s.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	s.StepN(cfg.Window)
	check("after Reset + 1 window")
}
