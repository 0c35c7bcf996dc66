package sweep

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

func fastBase() core.Config {
	cfg := core.DefaultConfig(core.NPNB)
	cfg.Boards = 4
	cfg.NodesPerBoard = 4
	cfg.Window = 500
	cfg.WarmupCycles = 1500
	cfg.MeasureCycles = 1500
	cfg.DrainLimitCycles = 30000
	return cfg
}

func TestLoads(t *testing.T) {
	ls := PaperLoads()
	if len(ls) != 9 {
		t.Fatalf("PaperLoads has %d points, want 9", len(ls))
	}
	if ls[0] != 0.1 || ls[8] != 0.9 {
		t.Fatalf("PaperLoads = %v", ls)
	}
	if got := Loads(0.2, 0.6, 0.2); len(got) != 3 || got[2] != 0.6 {
		t.Fatalf("Loads(0.2,0.6,0.2) = %v", got)
	}
}

func TestLoadsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid range did not panic")
		}
	}()
	Loads(0.5, 0.1, 0.1)
}

func TestRunProducesAllPoints(t *testing.T) {
	var done atomic.Int64
	series, err := RunContext(context.Background(), Request{
		Base:     fastBase(),
		Patterns: []string{traffic.Uniform, traffic.Complement},
		Modes:    []core.Mode{core.NPNB, core.PB},
		Loads:    []float64{0.2, 0.4},
		Workers:  4,
		OnResult: func(Series, Point) { done.Add(1) },
	})
	if len(series) != 4 {
		t.Fatalf("got %d series, want 4", len(series))
	}
	if done.Load() != 8 {
		t.Fatalf("OnResult called %d times, want 8", done.Load())
	}
	if err != nil {
		t.Fatalf("sweep errors: %v", err)
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Fatalf("%s: %d points, want 2", s.Label(), len(s.Points))
		}
		for i, p := range s.Points {
			if p.Result == nil {
				t.Fatalf("%s point %d missing result", s.Label(), i)
			}
			if p.Result.Mode != s.Mode || p.Result.Pattern != s.Pattern {
				t.Fatalf("%s point %d carries wrong identity %v/%v", s.Label(), i, p.Result.Mode, p.Result.Pattern)
			}
		}
		// Points ordered by load as requested.
		if s.Points[0].Load != 0.2 || s.Points[1].Load != 0.4 {
			t.Fatalf("%s: point loads %v,%v", s.Label(), s.Points[0].Load, s.Points[1].Load)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	req := Request{
		Base:     fastBase(),
		Patterns: []string{traffic.Uniform},
		Modes:    []core.Mode{core.PB},
		Loads:    []float64{0.2, 0.5},
	}
	req.Workers = 1
	serial, _ := RunContext(context.Background(), req)
	req.Workers = 8
	parallel, _ := RunContext(context.Background(), req)
	for i := range serial {
		for j := range serial[i].Points {
			a, b := serial[i].Points[j].Result, parallel[i].Points[j].Result
			if a.Throughput != b.Throughput || a.AvgLatency != b.AvgLatency || a.PowerDynamicMW != b.PowerDynamicMW {
				t.Fatalf("parallel run diverged from serial at %s load %v", serial[i].Label(), serial[i].Points[j].Load)
			}
		}
	}
}

func TestSweepCarriesErrors(t *testing.T) {
	base := fastBase()
	base.NodesPerBoard = 3 // complement needs power-of-two nodes → error
	_, err := RunContext(context.Background(), Request{
		Base:     base,
		Patterns: []string{traffic.Complement},
		Modes:    []core.Mode{core.NPNB},
		Loads:    []float64{0.2},
	})
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok || len(joined.Unwrap()) != 1 {
		t.Fatalf("expected 1 joined error, got %v", err)
	}
}

func TestSaturationLoad(t *testing.T) {
	series, _ := RunContext(context.Background(), Request{
		Base:     fastBase(),
		Patterns: []string{traffic.Complement},
		Modes:    []core.Mode{core.NPNB},
		Loads:    []float64{0.1, 0.5, 0.9},
	})
	// Complement saturates the static network at low loads.
	sat := SaturationLoad(series[0])
	if sat > 0.9 {
		t.Fatalf("complement NP-NB never saturated (sat=%v)", sat)
	}
	// A barely loaded uniform system does not saturate.
	uni, _ := RunContext(context.Background(), Request{
		Base:     fastBase(),
		Patterns: []string{traffic.Uniform},
		Modes:    []core.Mode{core.NPNB},
		Loads:    []float64{0.1, 0.2},
	})
	if sat := SaturationLoad(uni[0]); sat < 1 {
		t.Fatalf("uniform saturated at %v with loads <= 0.2", sat)
	}
}

func TestEmptyRequest(t *testing.T) {
	if got, _ := RunContext(context.Background(), Request{Base: fastBase()}); got != nil {
		t.Fatalf("empty request produced %v", got)
	}
}

// TestRequestValidate: Validate passes a runnable request and locates
// each fault by axis and index: an empty axis, a (pattern, mode) point
// Config.Validate rejects, and a load outside (0, 1].
func TestRequestValidate(t *testing.T) {
	ok := Request{Base: fastBase(), Patterns: []string{traffic.Uniform}, Modes: []core.Mode{core.PB}, Loads: []float64{0.5, 1}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid request: %v", err)
	}
	for _, tc := range []struct {
		req  Request
		want []string
	}{
		{Request{Base: fastBase()}, []string{"patterns", "modes", "loads"}},
		{Request{
			Base:     fastBase(),
			Patterns: []string{traffic.Uniform, "complemnt"},
			Modes:    []core.Mode{core.PB, core.NPNB},
			Loads:    []float64{0.3, 1.5, 0},
		}, []string{"patterns[1]", "loads[1]", "loads[2]"}},
	} {
		var ve core.ValidationError
		if err := tc.req.Validate(); !errors.As(err, &ve) || !reflect.DeepEqual(ve.Fields(), tc.want) {
			t.Errorf("Validate() = %v, want fields %v", err, tc.want)
		}
	}
}

// TestRunContextCancellation: cancelling a sweep stops dispatching,
// cancels in-flight runs at their next window boundary, and marks
// every unfinished point with the context error.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var finished atomic.Int64
	series, err := RunContext(ctx, Request{
		Base:     fastBase(),
		Patterns: []string{traffic.Uniform},
		Modes:    []core.Mode{core.NPNB, core.PB},
		Loads:    []float64{0.2, 0.3, 0.4, 0.5},
		Workers:  1,
		OnResult: func(Series, Point) {
			// Cancel as soon as the first point completes: with one worker
			// the remaining points cannot all have run.
			if finished.Add(1) == 1 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep error %v does not wrap context.Canceled", err)
	}
	if len(series) != 2 {
		t.Fatalf("got %d series, want 2", len(series))
	}
	var ok, cancelled int
	for _, s := range series {
		for _, p := range s.Points {
			switch {
			case p.Err == nil && p.Result != nil:
				ok++
			case p.Err != nil && errors.Is(p.Err, context.Canceled):
				cancelled++
			default:
				t.Fatalf("%s load %v: inconsistent point (result %v, err %v)",
					s.Label(), p.Load, p.Result != nil, p.Err)
			}
		}
	}
	if ok == 0 {
		t.Error("no point completed before cancellation")
	}
	if cancelled == 0 {
		t.Error("no point carries the cancellation error")
	}
	if ok+cancelled != 8 {
		t.Errorf("points = %d ok + %d cancelled, want 8 total", ok, cancelled)
	}
}
