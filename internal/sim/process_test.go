package sim

import "testing"

func TestProcessDelay(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.SpawnProcess("p", func(p *Process) {
		trace = append(trace, e.Now())
		p.Delay(10)
		trace = append(trace, e.Now())
		p.Delay(5)
		trace = append(trace, e.Now())
	})
	e.Run()
	want := []Time{0, 10, 15}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if len(e.procs) != 0 {
		t.Fatalf("LiveProcesses = %d, want 0", len(e.procs))
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.SpawnProcess(name, func(p *Process) {
				for i := 0; i < 3; i++ {
					trace = append(trace, name)
					p.Delay(2)
				}
			})
		}
		e.Run()
		return trace
	}
	first := run()
	if len(first) != 9 {
		t.Fatalf("trace length = %d, want 9", len(first))
	}
	// Spawn order must be preserved at every shared instant.
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("trace = %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 20; trial++ {
		got := run()
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("trial %d: nondeterministic trace %v vs %v", trial, got, first)
			}
		}
	}
}

func TestProcessZeroDelayYields(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.SpawnProcess("a", func(p *Process) {
		trace = append(trace, "a1")
		p.Delay(0)
		trace = append(trace, "a2")
	})
	e.SpawnProcess("b", func(p *Process) {
		trace = append(trace, "b1")
	})
	e.Run()
	// a yields after a1, so b1 runs before a2.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcessRunsInsideClockedSimulation(t *testing.T) {
	// Processes and a self-rescheduling per-cycle event share the
	// calendar coherently.
	e := NewEngine()
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		if e.Now() == 50 {
			e.Stop()
			return
		}
		e.After(1, tick)
	}
	var samples []int
	e.SpawnProcess("sampler", func(p *Process) {
		for i := 0; i < 5; i++ {
			p.Delay(10)
			samples = append(samples, ticks)
		}
	})
	e.After(0, tick)
	e.Run()
	if len(samples) != 5 {
		t.Fatalf("samples = %v, want 5 entries", samples)
	}
	// The process wake-up at t=10 was scheduled at t=0, so it carries a lower
	// sequence number than the t=10 tick (scheduled at t=9) and runs first:
	// the sampler sees the ticks for t=0..9 only.
	if samples[0] != 10 {
		t.Fatalf("samples[0] = %d, want 10", samples[0])
	}
}

func TestShutdownReleasesProcesses(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.SpawnProcess("looper", func(p *Process) {
			for {
				p.Delay(10)
			}
		})
	}
	e.RunUntil(100)
	if len(e.procs) != 5 {
		t.Fatalf("LiveProcesses = %d, want 5", len(e.procs))
	}
	e.Shutdown()
	if len(e.procs) != 0 {
		t.Fatalf("LiveProcesses after Shutdown = %d, want 0", len(e.procs))
	}
	if !e.stopped {
		t.Fatal("engine not stopped after Shutdown")
	}
}

func TestShutdownBeforeFirstActivation(t *testing.T) {
	e := NewEngine()
	ran := false
	e.SpawnProcess("never", func(p *Process) { ran = true })
	// Shut down without running the engine: the process never activates.
	e.Shutdown()
	if ran {
		t.Fatal("process body ran despite shutdown")
	}
}
