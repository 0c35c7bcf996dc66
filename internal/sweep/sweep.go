// Package sweep runs batches of independent simulations in parallel and
// assembles them into the figure series of the paper's evaluation
// (throughput / latency / power versus offered load, per traffic pattern
// and network mode).
//
// Each simulation owns its engine, fabric and RNG streams, so runs are
// embarrassingly parallel across goroutines while each run stays
// bit-deterministic.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
)

// Point is one (config, result) pair of a sweep.
type Point struct {
	Load   float64
	Result *core.Result
	Err    error
}

// Series is one curve of a figure: a mode/pattern combination across
// loads.
type Series struct {
	Mode    core.Mode
	Pattern string
	Points  []Point
}

// Label returns the curve's legend label.
func (s Series) Label() string { return fmt.Sprintf("%s/%s", s.Mode, s.Pattern) }

// Loads returns the paper's load axis: start..end inclusive in steps.
func Loads(start, end, step float64) []float64 {
	if step <= 0 || end < start {
		panic(fmt.Sprintf("sweep: invalid load range [%v,%v] step %v", start, end, step))
	}
	var ls []float64
	for x := start; x <= end+1e-9; x += step {
		// Round to 3 decimals to keep labels exact (0.1, 0.2, ...).
		ls = append(ls, float64(int(float64(x*1000)+0.5))/1000)
	}
	return ls
}

// PaperLoads returns 0.1 .. 0.9 in steps of 0.1 (Sec. 4).
func PaperLoads() []float64 { return Loads(0.1, 0.9, 0.1) }

// Request describes a sweep: the cartesian product of patterns, modes
// and loads over a base configuration.
type Request struct {
	Base     core.Config
	Patterns []string
	Modes    []core.Mode
	Loads    []float64
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// OnResult, if set, is called as each run finishes (progress
	// reporting). It may be called from multiple goroutines. The Series
	// argument identifies the curve (Mode, Pattern); its Points slice is
	// nil — other workers are still writing the shared points array, so a
	// snapshot cannot be passed without copying under the lock.
	OnResult func(Series, Point)
}

// Validate checks a request before anything runs: every axis names at
// least one value, every (pattern, mode) point is a valid Config over
// Base, and every load passes CheckLoad. It returns nil or a
// core.ValidationError whose fields locate each fault by axis and index
// ("patterns[1]", "loads[0]").
func (r Request) Validate() error {
	var ve core.ValidationError
	add := func(field, msg string) { ve = append(ve, core.FieldError{Field: field, Msg: msg}) }
	if len(r.Patterns) == 0 {
		add("patterns", "at least one traffic pattern is required")
	}
	if len(r.Modes) == 0 {
		add("modes", "at least one mode is required (NP-NB, P-NB, NP-B, P-B)")
	}
	if len(r.Loads) == 0 {
		add("loads", "at least one offered load is required")
	}
	for i, pat := range r.Patterns {
		for _, mode := range r.Modes {
			cfg := r.Base
			cfg.Pattern, cfg.Mode = pat, mode
			var point core.ValidationError
			if errors.As(cfg.Validate(), &point) {
				for _, f := range point {
					add(fmt.Sprintf("patterns[%d]", i), fmt.Sprintf("%s/%s: %v", mode, pat, f))
				}
				break // one mode names the fault; the others would repeat it
			}
		}
	}
	for i, l := range r.Loads {
		if err := CheckLoad(l); err != nil {
			add(fmt.Sprintf("loads[%d]", i), err.Error())
		}
	}
	if len(ve) > 0 {
		return ve
	}
	return nil
}

// CheckLoad rejects an offered load outside (0, 1]: a fraction of the
// uniform network capacity.
func CheckLoad(l float64) error {
	if !(l > 0 && l <= 1) {
		return fmt.Errorf("offered load must be in (0,1], got %v", l)
	}
	return nil
}

// forEachJob calls fn once per job index in [0, n), in ascending
// dispatch order, from up to workers goroutines (<= 0 means
// GOMAXPROCS; never more than n). Each goroutine owns one
// core.Runner for all its jobs. Cancelling ctx stops dispatching; jobs
// already handed out run to completion (fn forwards ctx into its run
// to cut them short).
func forEachJob(ctx context.Context, workers, n int, fn func(r *core.Runner, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var runner core.Runner
			for i := range next {
				fn(&runner, i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
}

// RunContext executes the sweep with bounded parallelism and
// cooperative cancellation, returning one series per (pattern, mode) in
// request order with points ordered by load, plus the joined errors of
// every failed point (nil when all points succeeded).
//
// Cancelling the context stops dispatching new points and cancels the
// in-flight runs at their next reconfiguration-window boundary; the
// returned series then hold the completed points, every unfinished
// point carries the context's error, and the joined error is non-nil.
func RunContext(ctx context.Context, req Request) ([]Series, error) {
	if len(req.Patterns) == 0 || len(req.Modes) == 0 || len(req.Loads) == 0 {
		return nil, nil
	}
	series := make([]Series, 0, len(req.Patterns)*len(req.Modes))
	for _, pat := range req.Patterns {
		for _, mode := range req.Modes {
			series = append(series, Series{
				Mode:    mode,
				Pattern: pat,
				Points:  make([]Point, len(req.Loads)),
			})
		}
	}

	var mu sync.Mutex
	forEachJob(ctx, req.Workers, len(series)*len(req.Loads), func(runner *core.Runner, i int) {
		s, pi := &series[i/len(req.Loads)], i%len(req.Loads)
		cfg := req.Base
		cfg.Mode = s.Mode
		cfg.Pattern = s.Pattern
		cfg.Load = req.Loads[pi]
		res, err := runner.RunContext(ctx, cfg)
		pt := Point{Load: cfg.Load, Result: res, Err: err}
		mu.Lock()
		s.Points[pi] = pt
		mu.Unlock()
		if req.OnResult != nil {
			// Pass only the curve labels: a full *s copy would share
			// the Points backing array that other workers mutate.
			req.OnResult(Series{Mode: s.Mode, Pattern: s.Pattern}, pt)
		}
	})

	var errs []error
	for _, s := range series {
		for pi := range s.Points {
			p := &s.Points[pi]
			if p.Result == nil && p.Err == nil {
				// Never ran: mark it so the caller can tell a cancelled
				// hole from a legitimately empty series.
				p.Err = ctx.Err()
			}
			if p.Err != nil {
				errs = append(errs, fmt.Errorf("%s load %.2f: %w", s.Label(), p.Load, p.Err))
			}
		}
	}
	return series, errors.Join(errs...)
}

// SaturationLoad estimates the saturation point of a series: the lowest
// load whose accepted throughput falls below 95% of offered, or +Inf
// when the series never saturates.
func SaturationLoad(s Series) float64 {
	loads := make([]float64, 0, len(s.Points))
	byLoad := map[float64]*core.Result{}
	for _, p := range s.Points {
		if p.Err != nil || p.Result == nil {
			continue
		}
		loads = append(loads, p.Load)
		byLoad[p.Load] = p.Result
	}
	sort.Float64s(loads)
	for _, l := range loads {
		if byLoad[l].Saturated() {
			return l
		}
	}
	return math.Inf(1)
}
