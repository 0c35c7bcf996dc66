package core

import (
	"strings"
	"testing"
)

// TestPhaseProfileDeterminism runs profiled systems serial and
// parallel and asserts the profiler's series exist, cover every flushed
// epoch/window, and are monotone (they accumulate). That a profiled run
// is bit-identical to an unprofiled one is the cell matrix's job (the
// -prof twins in TestCells/profiler).
func TestPhaseProfileDeterminism(t *testing.T) {
	cfg := fastConfig(PB)
	cfg.Pattern = "complement"
	cfg.Load = 0.5
	for _, workers := range []int{1, 2, 4} {
		c := cfg
		c.Workers = workers
		c.PhaseProfile = true
		s, err := NewSystem(c)
		if err != nil {
			t.Fatal(err)
		}
		wantWorkers := s.Workers() // before RunContext closes the pool
		if _, err := s.RunContext(t.Context()); err != nil {
			t.Fatal(err)
		}
		pp := s.PhaseProfile()
		if pp == nil {
			t.Fatalf("workers=%d: PhaseProfile() is nil with Config.PhaseProfile set", workers)
		}
		rep := pp.Report()
		if rep.Epochs == 0 || rep.Cycles == 0 {
			t.Fatalf("workers=%d: nothing profiled: %+v", workers, rep)
		}
		if got := len(rep.Workers); got != wantWorkers {
			t.Fatalf("workers=%d: report has %d workers, system has %d", workers, got, wantWorkers)
		}
		boards := 0
		for _, w := range rep.Workers {
			boards += w.Boards
		}
		if boards != c.Boards {
			t.Errorf("workers=%d: shard widths sum to %d boards, want %d", workers, boards, c.Boards)
		}
		reg := pp.Registry()
		marks := len(reg.Windows())
		if marks == 0 {
			t.Fatalf("workers=%d: no flushed windows", workers)
		}
		for _, name := range reg.SeriesNames() {
			ts := reg.Lookup(name)
			if ts.Len() != marks {
				t.Errorf("workers=%d: series %s has %d samples, want %d", workers, name, ts.Len(), marks)
			}
			vals := ts.Values()
			for i := 1; i < len(vals); i++ {
				if vals[i] < vals[i-1] {
					t.Errorf("workers=%d: series %s not monotone at %d: %v < %v",
						workers, name, i, vals[i], vals[i-1])
					break
				}
			}
		}
		// The shard-proportional phases must have recorded real time on
		// every worker.
		for _, w := range rep.Workers {
			if w.ComputeNS() <= 0 {
				t.Errorf("workers=%d: worker %d recorded no compute time", workers, w.Worker)
			}
		}
		if workers > 1 {
			// Non-zero workers wait out worker 0's serial sections, so
			// their barrier time cannot be zero on a real run.
			for _, w := range rep.Workers[1:] {
				if w.BarrierNS <= 0 {
					t.Errorf("workers=%d: worker %d recorded no barrier time", workers, w.Worker)
				}
			}
		}
	}
}

// TestPhaseProfileOffNoAllocs holds the profiler's disabled path (the
// default) to the steady-state allocation budget, with the phase hooks
// compiled into the step.
func TestPhaseProfileOffNoAllocs(t *testing.T) {
	if s := assertStepAllocs(t, fastConfig(PB)); s.PhaseProfile() != nil {
		t.Fatal("profiler enabled without Config.PhaseProfile")
	}
}

// TestPhaseProfileOnStepNoAllocs holds the enabled profiler to the same
// budget: the accumulators are fixed arrays and the flush pushes into
// preallocated rings.
func TestPhaseProfileOnStepNoAllocs(t *testing.T) {
	cfg := fastConfig(PB)
	cfg.PhaseProfile = true
	assertStepAllocs(t, cfg)
}

func TestPhaseAggregate(t *testing.T) {
	var agg PhaseAggregate
	agg.Add(PhaseReport{
		Epochs: 2, Cycles: 1000,
		Workers: []PhaseWorkerStats{
			{Worker: 0, Boards: 2, DrawNS: 10, TickNS: 30, BarrierNS: 5, SerialNS: 20},
			{Worker: 1, Boards: 2, DrawNS: 12, TickNS: 28, BarrierNS: 9},
		},
	})
	agg.Add(PhaseReport{
		Epochs: 3, Cycles: 1500,
		Workers: []PhaseWorkerStats{
			{Worker: 0, Boards: 2, DrawNS: 1, TickNS: 1, BarrierNS: 1, SerialNS: 1},
		},
	})
	if agg.Runs() != 2 {
		t.Fatalf("runs = %d", agg.Runs())
	}
	r := agg.Report()
	if r.Epochs != 5 || r.Cycles != 2500 {
		t.Fatalf("merged epochs/cycles = %d/%d", r.Epochs, r.Cycles)
	}
	if len(r.Workers) != 2 || r.Workers[0].Worker != 0 || r.Workers[1].Worker != 1 {
		t.Fatalf("merged workers = %+v", r.Workers)
	}
	if r.Workers[0].DrawNS != 11 || r.Workers[0].TickNS != 31 {
		t.Fatalf("worker 0 totals = %+v", r.Workers[0])
	}
	if im := r.Imbalance(); im <= 1 {
		t.Fatalf("imbalance = %v, want > 1 for uneven shards", im)
	}

	var buf strings.Builder
	FormatPhaseReport(&buf, r)
	out := buf.String()
	for _, want := range []string{"2 workers", "shard imbalance", "barrier-wait fraction", "serial fraction"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	var empty strings.Builder
	FormatPhaseReport(&empty, PhaseReport{})
	if !strings.Contains(empty.String(), "no data") {
		t.Errorf("empty report = %q", empty.String())
	}
}
