package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/link"
	"repro/internal/policy"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// This file is the package's one identity matrix: cells lists every
// configuration the same-seed ⇒ same-bytes claims rest on, and the
// driver simulates each cell once and judges that one run with every
// oracle:
//   - index: checkIndex after each NewSystem or Reset, and after every
//     cycle of the cells with steps > 0;
//   - golden: SHA-256 of the Result JSON and of the JSONL event stream,
//     one line per cell in testdata/cells.golden;
//   - twins: the cells of one base differ only in how they run (observer,
//     an empty fault spec), so their golden lines must carry one Result
//     hash, and one event hash where both stream events; a cell that
//     misses its line is replayed fresh beside a twin to print the first
//     differing event;
//   - Reset ≡ fresh: a chain's cells run in order on one System, each
//     Reset from the previous cell, and the steps cells are abandoned
//     with packets in flight; an again cell reruns its base's w1 cell in
//     another chain and must reproduce the w1 line;
//   - check: the base's own assertion that its run exercised something.
//
// The tests below hold no configuration of their own: each runs the
// chains named under it, every chain a parallel (sub)test.

func TestIndexInvariant(t *testing.T)                 { runCells(t) }
func TestWideShapeDigest(t *testing.T)                { runCells(t) }
func TestCtrlPlaneGolden(t *testing.T)                { runCells(t) }
func TestPolicyConformanceDeterminism(t *testing.T)   { runCells(t) }
func TestTelemetryDoesNotPerturbResults(t *testing.T) { runCells(t) }
func TestParallelMatchesSerial(t *testing.T)          { runCells(t) }
func TestParallelMatchesSerialFaulted(t *testing.T)   { runCells(t) }
func TestParallelMatchesSerialBursty(t *testing.T)    { runCells(t) }
func TestParallelRepeatable(t *testing.T)             { runCells(t) }
func TestParallelFaultAccounting(t *testing.T)        { runCells(t) }
func TestResetMatchesNewSystem(t *testing.T)          { runCells(t) }
func TestResetMidRun(t *testing.T)                    { runCells(t) }
func TestResetParallel(t *testing.T)                  { runCells(t) }
func TestResetReusedAcrossRuns(t *testing.T)          { runCells(t) }
func TestRunDeterminism(t *testing.T)                 { runCells(t) }
func TestRunDeterminismAcrossSeeds(t *testing.T)      { runCells(t) }
func TestRunDeterminismFaulted(t *testing.T)          { runCells(t) }
func TestDeterminism(t *testing.T)                    { runCells(t) }
func TestGoldenFaultedRun(t *testing.T)               { runCells(t) }
func TestEmptyFaultSpecIsIdentity(t *testing.T)       { runCells(t) }
func TestTelemetryDeterminism(t *testing.T)           { runCells(t) }
func TestCells(t *testing.T)                          { runCells(t) }

var updateGolden = flag.Bool("update", false, "rewrite golden files")

const cellsGolden = "testdata/cells.golden"

// observer is what watches a cell's run.
type observer int

const (
	obsEvents    observer = iota // a JSONL sink streams the events
	obsNone                      // nothing; the event hash is of no bytes
	obsTelemetry                 // EnableTelemetry; its metrics dump joins the event hash
)

// variant is how a cell runs its base's configuration. The names keep
// the w1 and w2 tags of the time cells also ran on several threads, so
// golden lines and test paths stay as they were: w1 is a run of its own,
// w2 an again cell.
type variant struct {
	again       bool // rerun the w1 cell in another chain; no golden line of its own
	emptyFaults bool // a fault spec that injects nothing
	obs         observer
}

// one and again are the event-streaming variants.
var one, again = variant{}, variant{again: true}

func (v variant) String() string {
	s := "w1"
	if v.again {
		s = "w2"
	}
	if v.emptyFaults {
		s += "-emptyfaults"
	}
	return s + [...]string{"", "-off", "-tel"}[v.obs]
}

// cell is one simulated run, named base/variant in the golden.
type cell struct {
	chain      string // the (sub)test whose one System runs the chain's cells in order
	perVariant bool   // each variant runs as a subtest of the chain
	base       string
	cfg        Config
	steps      uint64              // > 0: step singly under checkIndex, abandon after steps cycles
	check      func(*Result) error // the base's non-vacuity assertion, if any
	v          variant
}

func (c cell) name() string { return c.base + "/" + c.v.String() }

// golden names the line c is judged against: its own, or for an again
// cell that of the w1 cell it reruns.
func (c cell) golden() string {
	if c.v.again {
		return c.base + "/" + one.String()
	}
	return c.name()
}

func (c cell) config() Config {
	cfg := c.cfg
	if c.v.emptyFaults {
		cfg.Faults = &fault.Spec{Seed: 42}
	}
	return cfg
}

// tweak is a variation of the fast config: tag joins the base name, edit
// applies it, and check asserts that it took effect.
type tweak struct {
	tag   string
	edit  func(*Config)
	check func(*Result) error
}

// cells is the matrix in golden order. short keeps the 2×2 and 8×8 index
// cells and the 4×4 cells.
func cells(short bool) []cell {
	var cs []cell
	add := func(c cell, vs ...variant) {
		for _, v := range vs {
			c.v = v
			cs = append(cs, c)
		}
	}
	// Index cells: the modes × three traffic shapes × healthy/faulted on
	// one System per shape, then again in reverse order on a second, so
	// each Reset starts from another predecessor.
	index := func(boards, nodes int, steps uint64) {
		var shape []cell
		for _, mode := range Modes() {
			for _, pattern := range []string{traffic.Uniform, traffic.Complement, traffic.Hotspot} {
				for _, health := range []string{"healthy", "faulted"} {
					cfg := DefaultConfig(mode)
					cfg.Boards, cfg.NodesPerBoard = boards, nodes
					cfg.Pattern, cfg.Load, cfg.Window, cfg.Seed = pattern, 0.7, 100, 11
					if n := boards * nodes; pattern == traffic.Complement && n&(n-1) != 0 {
						cfg.Pattern = traffic.Tornado // complement needs a power-of-two node count
					}
					cfg.WarmupCycles, cfg.MeasureCycles = steps/4, steps
					if health == "faulted" {
						cfg.Faults = shapedFaultSpec(boards, steps)
					}
					shape = append(shape, cell{
						chain: fmt.Sprintf("TestIndexInvariant/%dx%d/w1", boards, nodes),
						base:  fmt.Sprintf("index-%dx%d-%s-%s-%s", boards, nodes, mode, cfg.Pattern, health),
						cfg:   cfg, steps: steps, v: one,
					})
				}
			}
		}
		cs = append(cs, shape...)
		for i := len(shape) - 1; i >= 0; i-- {
			c := shape[i]
			c.chain, c.v = strings.TrimSuffix(c.chain, "w1")+"w2", again
			cs = append(cs, c)
		}
	}
	// Control-plane cells: ring faults × windows × the reconfiguring
	// modes; at 16 boards a DBR exchange overruns R_w 300 and 100.
	ctrlPlane := func(boards, nodes int) {
		for _, sc := range []struct {
			name string
			spec *fault.Spec
		}{
			{"healthy", nil},
			{"dropdelay", &fault.Spec{Seed: 7, CtrlDropRate: 0.2, CtrlDelayRate: 0.3, CtrlDelayCycles: 8}},
			{"delay1", &fault.Spec{Seed: 7, CtrlDelayRate: 0.7, CtrlDelayCycles: 1}},
			{"mixed", faultSpec()},
		} {
			for _, window := range []uint64{2000, 300, 100} {
				for _, mode := range []Mode{PB, NPB, PNB} {
					cfg := DefaultConfig(mode)
					cfg.Boards, cfg.NodesPerBoard, cfg.Window = boards, nodes, window
					cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainLimitCycles = 3000, 3000, 20000
					cfg.Pattern, cfg.Load, cfg.Seed, cfg.Faults = traffic.Complement, 0.4, 12345, sc.spec
					base := fmt.Sprintf("%s-%dx%d-rw%d-%s", sc.name, boards, nodes, window, mode)
					add(cell{chain: "TestCtrlPlaneGolden/" + base, perVariant: true, base: base, cfg: cfg}, one, again)
				}
			}
		}
	}
	// fast is a cell of the 16-node fast config.
	fast := func(chain string, mode Mode, pattern string, load float64, seed uint64, tw tweak) cell {
		cfg := fastConfig(mode)
		cfg.Pattern, cfg.Load, cfg.Seed = pattern, load, seed
		if tw.edit != nil {
			tw.edit(&cfg)
		}
		base := strings.TrimSuffix(fmt.Sprintf("fast-%s-%s-%g-s%d-%s", mode, pattern, load, seed, tw.tag), "-")
		return cell{chain: chain, base: base, cfg: cfg, check: tw.check}
	}
	dropped := func(r *Result) error {
		if r.DroppedByFault == 0 {
			return errors.New("the faults dropped no packets")
		}
		return nil
	}
	reassigned := func(r *Result) error {
		if r.Ctrl.Reassignments == 0 {
			return errors.New("DBR moved no channel")
		}
		return nil
	}
	var (
		plain  tweak
		faults = tweak{"faults", func(c *Config) { c.Faults = faultSpec() }, func(r *Result) error {
			if r.Faults.LaserKills != 1 {
				return fmt.Errorf("fault schedule not applied: %+v", r.Faults)
			}
			return nil
		}}
		kill = tweak{"kill", func(c *Config) {
			c.Faults = &fault.Spec{Events: []fault.Event{{At: 3200, Kind: fault.KindLaserKill, Board: 1, Wavelength: 2, Dest: 3}}}
		}, dropped}
		burst40 = tweak{tag: "burst40", edit: func(c *Config) { c.BurstLength = 40 }}
		short1k = tweak{tag: "short", edit: func(c *Config) { c.WarmupCycles, c.MeasureCycles = 1000, 1000 }}
	)
	withPolicy := func(name string, faulted bool) tweak {
		tw := tweak{tag: name, edit: func(c *Config) { c.Policy = &policy.Spec{Name: name} }}
		if faulted {
			tw.tag += "-faults"
			tw.edit = func(c *Config) { c.Policy, c.Faults = &policy.Spec{Name: name}, conformanceFaultSpec() }
		}
		return tw
	}
	const u, c = traffic.Uniform, traffic.Complement

	// Each test's longest chains first, so they start first.
	if !short {
		index(66, 2, 250)
		index(16, 4, 400)
		// The shapes whose routers and per-board sets span more than one
		// 64-bit word: 66×2 (67-port IBI) and 64×8 on the scale-512 schedule.
		wide := DefaultConfig(PB)
		wide.Boards, wide.NodesPerBoard, wide.Load, wide.Window, wide.Seed = 66, 2, 0.6, 500, 5
		wide.WarmupCycles, wide.MeasureCycles = 500, 1500
		add(cell{chain: "TestWideShapeDigest/66x2", perVariant: true, base: "wide-66x2", cfg: wide}, one, again)
		scale := DefaultConfig(PB)
		scale.Boards, scale.NodesPerBoard, scale.WarmupCycles, scale.MeasureCycles = 64, 8, 1000, 2000
		add(cell{chain: "TestWideShapeDigest/64x8", perVariant: true, base: "wide-64x8", cfg: scale}, one, again)
		ctrlPlane(16, 2)
		ctrlPlane(8, 8)
	}
	index(8, 8, 600)
	index(2, 2, 600)
	ctrlPlane(4, 4)
	for _, name := range policy.Names() {
		p := "TestPolicyConformanceDeterminism/" + name + "/"
		for _, mode := range Modes() {
			add(fast(p+mode.String(), mode, c, 0.4, 99, withPolicy(name, false)), one)
		}
		add(fast("TestCells/"+name+"-faults", PB, c, 0.4, 99, withPolicy(name, true)), one)
	}
	for _, mode := range Modes() {
		add(fast("TestTelemetryDoesNotPerturbResults", mode, c, 0.6, 7, plain),
			one, variant{obs: obsNone}, variant{obs: obsTelemetry})
	}
	for _, mode := range Modes() {
		m := "/" + mode.String()
		add(fast("TestParallelMatchesSerial"+m, mode, u, 0.5, 1, plain), one)
		add(fast("TestRunDeterminism"+m, mode, u, 0.5, 12345, plain), one)
		add(fast("TestRunDeterminismFaulted"+m, mode, c, 0.4, 12345, faults), one)
		// A completed run of another seed, then Reset.
		add(fast("TestResetMatchesNewSystem"+m, mode, u, 0.5, 18, plain), one)
		add(fast("TestResetMatchesNewSystem"+m, mode, u, 0.5, 1, plain), variant{obs: obsNone})
	}
	// A Reset from a run abandoned mid-flight (w1); then the abandoned run
	// Reset from a completed one, and the completed run again (w2).
	abandoned := fast("TestResetMidRun/w1", PB, u, 0.9, 18, tweak{tag: "abandoned"})
	abandoned.steps = 1500
	completed := fast("TestResetMidRun/w1", PB, u, 0.9, 18, plain)
	add(abandoned, one)
	add(completed, one)
	abandoned.chain, completed.chain = "TestResetMidRun/w2", "TestResetMidRun/w2"
	add(completed, again)
	add(abandoned, again)
	add(completed, again)
	// The telemetry collector, then a plain run, on one System.
	add(fast("TestResetParallel", PB, u, 0.5, 1, plain), variant{obs: obsTelemetry}, one)
	// A policy, mode, fault and seed change on one System.
	add(fast("TestResetReusedAcrossRuns", PB, u, 0.5, 1, withPolicy("greedy-off", false)), one)
	add(fast("TestResetReusedAcrossRuns", NPNB, u, 0.5, 1, plain), variant{obs: obsTelemetry})
	add(fast("TestResetReusedAcrossRuns", PB, u, 0.5, 1, faults), variant{obs: obsNone})
	add(fast("TestResetReusedAcrossRuns", PNB, u, 0.5, 99, plain), one)
	faulted := fast("TestParallelMatchesSerialFaulted", PB, u, 0.5, 1, faults)
	faulted.check = dropped
	add(faulted, one)
	add(fast("TestParallelMatchesSerialBursty", PB, u, 0.5, 1, burst40), one)
	add(fast("TestParallelRepeatable", NPB, u, 0.5, 1, short1k), one)
	add(fast("TestParallelFaultAccounting", PB, u, 0.5, 1, kill), one)
	add(fast("TestGoldenFaultedRun", PB, c, 0.4, 12345, faults), variant{obs: obsNone})
	add(fast("TestRunDeterminismAcrossSeeds", PB, u, 0.5, 2, plain), one)
	add(fast("TestDeterminism", PB, u, 0.6, 42, plain), one)
	add(fast("TestEmptyFaultSpecIsIdentity", PB, u, 0.5, 7, plain), one, variant{emptyFaults: true})
	add(fast("TestTelemetryDeterminism", PB, c, 0.5, 99, plain), one, variant{obs: obsTelemetry})
	add(fast("TestCells/complement", PB, c, 0.5, 1, plain), variant{obs: obsNone})
	// Lasers that are dark at the start of the run: DBR on a cost-reduced
	// array reaching for unpopulated ports; a kill and a level stick on
	// lasers whose channels board 1 and 2 hold, the stuck one later granted
	// to board 0; bursty tornado traffic whose packets park on a dark
	// static-wavelength laser after its channel was lent out.
	add(fast("TestCells/radius1", PB, c, 0.4, 5, tweak{"radius1", func(c *Config) { c.PortRadius = 1 }, reassigned}), one)
	darkFaults := tweak{"darkfaults", func(c *Config) {
		c.Faults = &fault.Spec{Events: []fault.Event{
			{At: 200, Kind: fault.KindLevelStick, Board: 0, Wavelength: 2, Dest: 3, Level: 1},
			{At: 300, Kind: fault.KindLaserKill, Board: 0, Wavelength: 3, Dest: 3},
		}}
	}, func(r *Result) error {
		if r.Faults.LaserKills != 1 || r.Faults.LevelSticks != 1 {
			return fmt.Errorf("fault schedule not applied: %+v", r.Faults)
		}
		return reassigned(r)
	}}
	add(fast("TestCells/darkfaults", PB, c, 0.4, 5, darkFaults), one)
	add(fast("TestCells/fallback", PB, traffic.Tornado, 0.6, 5, tweak{"burst400", func(c *Config) { c.BurstLength = 400 }, reassigned}), one)
	// The idle regime: long stretches with nothing in flight, where DPM
	// turns lasers down or off between sparse injections.
	add(fast("TestCells/idle", PB, u, 0.02, 1, plain), one)
	add(fast("TestCells/idle", PB, u, 0.002, 1, plain), one)
	return cs
}

// matrix is the cell list of this process (after flag parsing, for
// -short).
var matrix = sync.OnceValue(func() []cell { return cells(testing.Short()) })

// goldenLines maps each cell name in the golden to its line, and fails
// when the golden's twins disagree.
var goldenLines = sync.OnceValues(func() (map[string]string, error) {
	data, err := os.ReadFile(cellsGolden)
	if err != nil {
		return nil, fmt.Errorf("%v (run with -update to create)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}
	return want, checkTwins(want)
})

// checkTwins compares each cell's line with that of its base's first
// cell: the Result hashes must be equal, and the event hashes when both
// stream events.
func checkTwins(lines map[string]string) error {
	var errs []error
	first := map[string]cell{}
	for _, c := range matrix() {
		if c.v.again {
			continue
		}
		ref, ok := first[c.base]
		if !ok {
			first[c.base] = c
			continue
		}
		a, b := strings.Fields(lines[ref.name()]), strings.Fields(lines[c.name()])
		if len(a) == 3 && len(b) == 3 && (a[1] != b[1] || a[2] != b[2] && ref.v.obs == obsEvents && c.v.obs == obsEvents) {
			errs = append(errs, fmt.Errorf("cell %s differs from its twin %s", c.name(), ref.name()))
		}
	}
	return errors.Join(errs...)
}

// ran holds each cell's golden line under -update.
var ran = struct {
	sync.Mutex
	lines map[string]string
}{lines: map[string]string{}}

// TestMain rewrites the golden under -update, and only from a run where
// every cell ran and passed.
func TestMain(m *testing.M) {
	flag.Parse()
	if *updateGolden && testing.Short() {
		fmt.Fprintln(os.Stderr, cellsGolden+" not written: -update rewrites it from the whole matrix, and -short leaves cells out")
		os.Exit(1)
	}
	code := m.Run()
	if *updateGolden {
		if err := writeGolden(code); err != nil {
			fmt.Fprintf(os.Stderr, "%s not written: %v\n", cellsGolden, err)
			code = 1
		}
	}
	os.Exit(code)
}

func writeGolden(code int) error {
	if code != 0 {
		return errors.New("tests failed")
	}
	var b strings.Builder
	written := map[string]bool{}
	for _, c := range matrix() {
		if c.v.again {
			continue
		}
		line, ok := ran.lines[c.name()]
		if !ok {
			return fmt.Errorf("cell %s did not run (a -run filter left out %s)", c.name(), c.chain)
		}
		// A cell reached by two chains (the same run from a fresh System
		// and after Resets) has one line.
		if !written[c.name()] {
			written[c.name()] = true
			b.WriteString(line + "\n")
		}
	}
	if err := checkTwins(ran.lines); err != nil {
		return err
	}
	return os.WriteFile(cellsGolden, []byte(b.String()), 0o644)
}

// runCells runs the chains under t's name, each on one System.
func runCells(t *testing.T) {
	t.Parallel()
	want, err := goldenLines()
	if err != nil && !*updateGolden {
		t.Fatal(err)
	}
	var chains [][]cell
	at := map[string]int{}
	for _, c := range matrix() {
		if top, _, _ := strings.Cut(c.chain, "/"); top != t.Name() {
			continue
		}
		i, ok := at[c.chain]
		if !ok {
			i = len(chains)
			at[c.chain] = i
			chains = append(chains, nil)
		}
		chains[i] = append(chains[i], c)
	}
	if len(chains) == 0 {
		t.Skip("-short leaves out every cell of " + t.Name())
	}
	for _, chain := range chains {
		sub, ok := strings.CutPrefix(chain[0].chain, t.Name()+"/")
		if !ok {
			runChain(t, chain, want)
			continue
		}
		t.Run(sub, func(t *testing.T) {
			t.Parallel()
			runChain(t, chain, want)
		})
	}
}

// runChain runs the cells in order on one System, made for the first
// and Reset for each next.
func runChain(t *testing.T, chain []cell, want map[string]string) {
	var s *System
	for _, c := range chain {
		if c.perVariant {
			t.Run(c.v.String(), func(t *testing.T) { runCell(t, &s, c, want) })
		} else {
			runCell(t, &s, c, want)
		}
	}
}

// runCell runs c on *s and judges the run.
func runCell(t *testing.T, s **System, c cell, want map[string]string) {
	var err error
	if *s == nil {
		*s, err = NewSystem(c.config())
	} else {
		err = (*s).Reset(c.config())
	}
	if err != nil {
		t.Fatalf("cell %s: %v", c.name(), err)
	}
	h := sha256.New()
	jsonl := telemetry.NewJSONL(h)
	res, tel := c.run(t, *s, jsonl)
	rj, err := json.Marshal(res)
	if err == nil {
		err = jsonl.Flush()
	}
	if err == nil && tel != nil {
		err = tel.Registry().WriteMetricsJSONL(h)
	}
	if err != nil {
		t.Fatal(err)
	}
	evHash := [32]byte(h.Sum(nil))
	if c.v.obs == obsEvents && evHash == sha256.Sum256(nil) {
		t.Errorf("cell %s emitted no events", c.name())
	}
	if c.v.emptyFaults && res.DegradedWindows != nil {
		t.Errorf("cell %s: the empty fault spec attached an injector", c.name())
	}
	if c.check != nil {
		if err := c.check(res); err != nil {
			t.Errorf("cell %s: %v", c.name(), err)
		}
	}
	line := fmt.Sprintf("%s %x %x", c.golden(), sha256.Sum256(rj), evHash)
	if *updateGolden {
		if !c.v.again {
			ran.Lock()
			ran.lines[c.name()] = line
			ran.Unlock()
		}
	} else if line != want[c.golden()] {
		t.Errorf("cell %s diverged from %s:\ngot:  %s\nwant: %s%s", c.name(), cellsGolden, line, want[c.golden()], c.replayTwin(t))
	}
}

// run runs c on s, observed by sink as its variant says, under the index
// check.
func (c cell) run(t *testing.T, s *System, sink telemetry.Sink) (*Result, *Telemetry) {
	t.Helper()
	var tel *Telemetry
	switch c.v.obs {
	case obsEvents:
		s.AttachSink(sink)
	case obsTelemetry:
		tel = s.EnableTelemetry(TelemetryConfig{Sinks: []telemetry.Sink{sink}})
	}
	if err := s.checkIndex(); err != nil {
		t.Fatalf("cell %s: before the first cycle: %v", c.name(), err)
	}
	if c.steps == 0 {
		return s.Run(), tel
	}
	for range c.steps {
		if now, err := s.StepN(1), s.checkIndex(); err != nil {
			t.Fatalf("cell %s: after cycle %d: %v", c.name(), now, err)
		}
	}
	if s.DeliveredCount() == 0 || s.Quiescent() {
		t.Fatalf("cell %s: delivered %d of %d injected; the run exercised nothing or left nothing in flight",
			c.name(), s.DeliveredCount(), s.InjectedCount())
	}
	return s.result(s.Cycle(), true), tel
}

// eventLog records every telemetry event in order.
type eventLog []telemetry.Event

func (l *eventLog) Emit(ev telemetry.Event) { *l = append(*l, ev) }

// replay runs c on a fresh System, logging every event.
func (c cell) replay(t *testing.T) (*Result, eventLog) {
	t.Helper()
	s, err := NewSystem(c.config())
	if err != nil {
		t.Fatal(err)
	}
	if c.v.obs == obsNone {
		c.v.obs = obsEvents
	}
	var log eventLog
	res, _ := c.run(t, s, &log)
	return res, log
}

// replayTwin replays c and the first other cell of its base that is not
// an again cell, and describes their first difference.
func (c cell) replayTwin(t *testing.T) string {
	for _, twin := range matrix() {
		if twin.base == c.base && twin.v != c.v && !twin.v.again {
			ra, ea := twin.replay(t)
			rb, eb := c.replay(t)
			d := cmp.Or(divergence(ra, ea, rb, eb), "none: the fresh replays agree")
			return fmt.Sprintf("\nfirst difference from twin %s: %s", twin.name(), d)
		}
	}
	return ""
}

// divergence describes the first difference between two runs — the
// first differing event, else the Results (DeepEqual: floats bit for
// bit) — or returns "" when they are identical.
func divergence(ra *Result, ea eventLog, rb *Result, eb eventLog) string {
	for i := range min(len(ea), len(eb)) {
		if ea[i] != eb[i] {
			return fmt.Sprintf("event %d diverges\nfirst:  %+v\nsecond: %+v", i, ea[i], eb[i])
		}
	}
	if len(ea) != len(eb) {
		return fmt.Sprintf("event streams of %d and %d events", len(ea), len(eb))
	}
	if !reflect.DeepEqual(ra, rb) {
		return fmt.Sprintf("Results diverge\nfirst:  %+v\nsecond: %+v", ra, rb)
	}
	return ""
}

// checkIndex asserts, by exhaustive scan, that every active set the
// engines walk agrees with the predicate it indexes: the boards' NIC and
// rx bits with PacketSource.HasWork, and Router.CheckIndex and
// Fabric.CheckIndex for the IBI port and transmitter sets.
func (s *System) checkIndex() error {
	sources := func(kind string, set router.ActiveSet, srcs []*link.PacketSource, bi int) error {
		for i, src := range srcs {
			if set.Has(i) != src.HasWork() {
				return fmt.Errorf("board %d %s %d: bit %v, HasWork %v", bi, kind, i, set.Has(i), src.HasWork())
			}
		}
		return nil
	}
	for bi, bd := range s.boards {
		if err := sources("nic", bd.nicSet, bd.nics, bi); err != nil {
			return err
		}
		if err := sources("rx", bd.rxSet, bd.rxSources, bi); err != nil {
			return err
		}
		if err := bd.ibi.CheckIndex(); err != nil {
			return err
		}
	}
	return s.fab.CheckIndex()
}

// shapedFaultSpec is faultSpec retimed into a run of the given length
// and, below the four boards its laser targets assume, retargeted at the
// two lasers a 2-board system has.
func shapedFaultSpec(boards int, cycles uint64) *fault.Spec {
	sp := faultSpec()
	for i := range sp.Events {
		e := &sp.Events[i]
		e.At = cycles / 4 * uint64(i+1) / 2
		if e.Duration > 0 {
			e.Duration = cycles / 5
		}
		if boards < 4 && e.Kind != fault.KindCtrlOutage {
			e.Board, e.Wavelength, e.Dest = i%2, 1, 1-i%2
		}
	}
	return sp
}
