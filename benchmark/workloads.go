package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/sweep"
)

// simSpec is one simulation input. It renders both ways a program under
// test can receive it — erapid command-line flags and a core.Config (the
// JSON body of POST /v1/runs, and the in-process traced run) — so the two
// cannot drift apart.
type simSpec struct {
	Mode          string
	Pattern       string
	Load          float64
	Boards, Nodes int
	Racks         int // > 0: Racks racks of Boards x Nodes under the inter-rack fabric
	Window        uint64
	Warmup        uint64
	Measure       uint64
	Drain         uint64
}

// paper is the erapid command's defaults: the paper's 64-node P-B system
// on the 20k/10k schedule.
var paper = simSpec{
	Mode: "P-B", Pattern: "uniform", Load: 0.5, Boards: 8, Nodes: 8,
	Window: 2000, Warmup: 20000, Measure: 10000, Drain: 300000,
}

func (s simSpec) nodes() int {
	n := s.Boards * s.Nodes
	if s.Racks > 0 {
		n *= s.Racks
	}
	return n
}

func (s simSpec) args(seed uint64) []string {
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	a := []string{
		"-mode", s.Mode, "-pattern", s.Pattern,
		"-load", strconv.FormatFloat(s.Load, 'g', -1, 64),
		"-window", u(s.Window), "-warmup", u(s.Warmup), "-measure", u(s.Measure), "-drain", u(s.Drain),
		"-seed", u(seed),
	}
	if s.Racks > 0 {
		return append(a, "-tiers", fmt.Sprintf("rack=%dx%d,count=%d", s.Boards, s.Nodes, s.Racks))
	}
	return append(a, "-boards", strconv.Itoa(s.Boards), "-nodes", strconv.Itoa(s.Nodes))
}

func (s simSpec) config(seed uint64) core.Config {
	mode, err := core.ParseMode(s.Mode)
	if err != nil {
		panic(err) // the workload table is static
	}
	cfg := core.DefaultConfig(mode)
	cfg.Pattern = s.Pattern
	cfg.Load = s.Load
	cfg.Boards, cfg.NodesPerBoard = s.Boards, s.Nodes
	cfg.Window = s.Window
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainLimitCycles = s.Warmup, s.Measure, s.Drain
	cfg.Seed = seed
	if s.Racks > 0 {
		cfg.Tiers = []core.TierSpec{{Boards: s.Boards, NodesPerBoard: s.Nodes}, {Boards: s.Racks}}
	}
	return cfg
}

type kind int

const (
	kindRun     kind = iota // one erapid process per op
	kindSweep               // one erapid-sweep process per op
	kindService             // one closed-loop pass against erapid-serve per op
)

// serviceMix is the number of operations of each class in one pass of
// the service-mix schedule, and how many configurations are primed into
// the result cache for the cached class to hit.
type serviceMix struct {
	Cold, Stream, Cached, DedupPairs, Primed int
}

// workload is one named input set of BENCHMARK.json.
type workload struct {
	name string
	kind kind
	// sim is the simulation an op runs: the whole op (kindRun), the base
	// of the sweep (kindSweep) or the job body (kindService).
	sim simSpec
	// layer is the flat system whose operation mix the per-layer
	// harnesses replay. For kindRun without racks it is sim itself.
	layer simSpec
	// saturated workloads may legitimately hit the drain limit.
	saturated bool

	// kindSweep.
	patterns, modes []string
	loads           []float64

	// kindService.
	mix serviceMix
}

// sweepWorkers and serviceClients size the two concurrent workloads for
// a two-core box: at most two simulations or connections at a time.
const (
	sweepWorkers   = 2
	serviceClients = 2
)

// quickSchedule is erapid-sweep -quick.
func quickSchedule(s simSpec) simSpec {
	s.Warmup, s.Measure, s.Drain = 8000, 5000, 60000
	return s
}

// workloads returns the seven workloads. Inputs are sized so that an op
// takes 0.5-1.6 s on the two-core reference box and a ten-second run
// holds at least six of them; README.md lists what was cut from the
// issue's sizes to fit the driver's time cap. With smoke set every
// system shrinks to a few nodes and a few hundred cycles.
func workloads(smoke bool) []workload {
	with := func(s simSpec, f func(*simSpec)) simSpec { f(&s); return s }

	saturated := with(paper, func(s *simSpec) { s.Pattern, s.Load = "complement", 0.9 })
	idle := with(paper, func(s *simSpec) { s.Load, s.Measure = 0.02, 200000 })
	scale := with(paper, func(s *simSpec) { s.Boards, s.Nodes, s.Warmup, s.Measure = 64, 8, 1000, 2000 })
	hier := with(paper, func(s *simSpec) { s.Racks, s.Warmup, s.Measure = 16, 4000, 4000 })
	sweepBase := quickSchedule(with(paper, func(s *simSpec) { s.Mode = "NP-NB" }))
	job := with(paper, func(s *simSpec) {
		s.Pattern, s.Load, s.Boards, s.Nodes = "complement", 0.7, 4, 4
		s.Window, s.Warmup, s.Measure, s.Drain = 500, 3000, 3000, 60000
	})
	mix := serviceMix{Cold: 12, Stream: 6, Cached: 24, DedupPairs: 3, Primed: 8}

	ws := []workload{
		{name: "headline-64", kind: kindRun, sim: paper},
		{name: "saturated-64", kind: kindRun, sim: saturated, saturated: true},
		{name: "idle-64", kind: kindRun, sim: idle},
		{name: "scale-512", kind: kindRun, sim: scale},
		{name: "hier-1024", kind: kindRun, sim: hier},
		{name: "sweep-fig5", kind: kindSweep, sim: sweepBase,
			patterns: []string{"uniform", "complement"}, modes: []string{"NP-NB", "P-B"}, loads: []float64{0.3, 0.7}},
		{name: "service-mix", kind: kindService, sim: job, mix: mix},
	}
	for i := range ws {
		w := &ws[i]
		if smoke {
			w.sim.Window, w.sim.Warmup, w.sim.Measure, w.sim.Drain = 100, 200, 200, 20000
			if w.sim.Boards > 8 {
				w.sim.Boards, w.sim.Nodes = 8, 2
			} else {
				w.sim.Boards, w.sim.Nodes = 2, 2
			}
			if w.sim.Racks > 0 {
				w.sim.Racks = 2
			}
			if w.kind == kindService {
				w.mix = serviceMix{Cold: 2, Stream: 1, Cached: 2, DedupPairs: 1, Primed: 2}
			}
		}
		w.layer = w.sim
		w.layer.Racks = 0 // hier-1024's layer rows are measured on one rack-shaped system
		if w.kind == kindSweep {
			// The sweep's layer rows come from its P-B uniform job at the
			// higher load.
			w.layer.Mode, w.layer.Pattern, w.layer.Load = "P-B", "uniform", w.loads[len(w.loads)-1]
		}
	}
	return ws
}

// sweepArgs renders the erapid-sweep command line. erapid-sweep has no
// schedule flags beyond -quick, so a smoke run shrinks only the system.
func (w workload) sweepArgs(seed uint64) []string {
	loads := make([]string, len(w.loads))
	for i, l := range w.loads {
		loads[i] = strconv.FormatFloat(l, 'g', -1, 64)
	}
	return []string{
		"-quick", "-patterns", strings.Join(w.patterns, ","), "-modes", strings.Join(w.modes, ","),
		"-loads", strings.Join(loads, ","), "-workers", strconv.Itoa(sweepWorkers),
		"-boards", strconv.Itoa(w.sim.Boards), "-nodes", strconv.Itoa(w.sim.Nodes),
		"-seed", strconv.FormatUint(seed, 10),
	}
}

// sweepRequest is the in-process equivalent of sweepArgs.
func (w workload) sweepRequest(seed uint64) sweep.Request {
	base := quickSchedule(w.sim).config(seed)
	base.Window = paper.Window
	modes := make([]core.Mode, len(w.modes))
	for i, m := range w.modes {
		mode, err := core.ParseMode(m)
		if err != nil {
			panic(err)
		}
		modes[i] = mode
	}
	return sweep.Request{Base: base, Patterns: w.patterns, Modes: modes, Loads: w.loads, Workers: sweepWorkers}
}

func (w workload) sweepJobs() int { return len(w.patterns) * len(w.modes) * len(w.loads) }
