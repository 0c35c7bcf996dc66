package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

// bench is one invocation's environment. Everything it writes goes under
// buildDir (.bench_build in the checkout, which .gitignore names).
type bench struct {
	root     string // checkout root: go.mod, BENCHMARK.json, cmd/
	buildDir string
	binDir   string
	tmpDir   string // this invocation's scratch, removed on exit
	seed     uint64
	smoke    bool
	log      io.Writer
	spec     *benchSpec
	built    bool
}

func newBench(root string, seed uint64, smoke bool, log io.Writer) (*bench, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return nil, err
	}
	b := &bench{root: root, buildDir: filepath.Join(root, ".bench_build"), seed: seed, smoke: smoke, log: log, spec: spec}
	b.binDir = filepath.Join(b.buildDir, "bin")
	if err := os.MkdirAll(b.binDir, 0o755); err != nil {
		return nil, err
	}
	if b.tmpDir, err = os.MkdirTemp(b.buildDir, "run-"); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *bench) close() { os.RemoveAll(b.tmpDir) }

func (b *bench) logf(format string, args ...any) { fmt.Fprintf(b.log, format+"\n", args...) }

func (b *bench) bin(name string) string { return filepath.Join(b.binDir, name) }

// ensureBuilt builds the three programs the workloads run. The output
// directory persists across invocations, so after the first build in a
// checkout this is the go command's up-to-date check (about 0.3 s), which
// every set-up pays; a smoke run pays it once.
func (b *bench) ensureBuilt(ctx context.Context) error {
	if b.smoke && b.built {
		return nil
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", b.binDir+string(filepath.Separator),
		"./cmd/erapid", "./cmd/erapid-sweep", "./cmd/erapid-serve")
	cmd.Dir = b.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	b.built = true
	return nil
}

// outcome accumulates one workload's untraced measurement.
type outcome struct {
	attempted, failed int
	problems          []string
	// samples holds one value per repetition for every end-to-end metric
	// (three for setup_s); the reported value is the median.
	samples map[string][]float64
	// notes are workload-specific lines for the human-readable report.
	notes []string
}

func newOutcome() *outcome { return &outcome{samples: make(map[string][]float64)} }

func (o *outcome) add(metric string, v float64) { o.samples[metric] = append(o.samples[metric], v) }

// op counts one attempted operation; any problem makes it a failed one.
func (o *outcome) op(problems []string) {
	o.attempted++
	if len(problems) > 0 {
		o.failed++
		if len(o.problems) < 20 {
			o.problems = append(o.problems, problems...)
		}
	}
}

// merge folds another outcome's operation counts and problems into o.
func (o *outcome) merge(other *outcome) {
	o.attempted += other.attempted
	o.failed += other.failed
	o.problems = append(o.problems, other.problems...)
}

func (o *outcome) values() map[string]float64 {
	v := make(map[string]float64, len(o.samples))
	for name, xs := range o.samples {
		v[name] = median(xs)
	}
	return v
}

// procStats is what the parent observes of one child from exec to exit.
type procStats struct {
	wall, cpu, rssMB float64
}

// peakRSSMB reads a live process's resident-set high-water mark (VmHWM
// in /proc/<pid>/status), 0 if it cannot be read.
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// runProc runs one child to completion and times it from exec to exit.
//
// Peak memory is polled from /proc while the child runs rather than taken
// from the ru_maxrss that wait returns: Go starts children with a
// vfork-style clone, and Linux folds the address space a process had
// before exec — here the benchmark's own — into the child's ru_maxrss, so
// a small child would report the benchmark's footprint instead of its own.
func runProc(ctx context.Context, dir, bin string, args ...string) (stdout, stderr []byte, st procStats, err error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	if err = cmd.Start(); err != nil {
		return nil, nil, st, err
	}
	exited := make(chan struct{})
	polled := make(chan float64)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		peak := peakRSSMB(cmd.Process.Pid)
		for {
			select {
			case <-exited:
				polled <- peak
				return
			case <-tick.C:
				peak = max(peak, peakRSSMB(cmd.Process.Pid))
			}
		}
	}()
	err = cmd.Wait()
	st.wall = time.Since(start).Seconds()
	close(exited)
	st.rssMB = <-polled
	st.cpu = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && st.rssMB == 0 {
		st.rssMB = float64(ru.Maxrss) / 1024 // gone before the first poll: fall back to the KiB figure of wait4
	}
	return out.Bytes(), errb.Bytes(), st, err
}

// simStats is what every surface reports about one simulation, parsed
// from erapid's text or decoded from a Result.
type simStats struct {
	Cycles, Injected, Delivered uint64
	SupplyMW                    float64
	Truncated                   bool
}

var (
	reSimulated = regexp.MustCompile(`simulated\s+(\d+) cycles, injected (\d+), delivered (\d+)`)
	reSupply    = regexp.MustCompile(`power dynamic/supply\s+[\d.]+ / ([\d.]+) mW`)
	reTier      = regexp.MustCompile(`tier \d.*?/([\d.]+) mW supply \(bound ([\d.]+)\).*?delivered ([\d.]+),`)
)

// simStatsOf reads the same statistics from a library Result.
func simStatsOf(r *core.Result) simStats {
	return simStats{Cycles: r.Cycles, Injected: r.Injected, Delivered: r.Delivered, SupplyMW: r.PowerSupplyMW, Truncated: r.Truncated}
}

// parseRun extracts the simulated statistics erapid prints.
func parseRun(out []byte) (simStats, error) {
	var s simStats
	m := reSimulated.FindSubmatch(out)
	p := reSupply.FindSubmatch(out)
	if m == nil || p == nil {
		return s, fmt.Errorf("erapid output has no simulated/power line:\n%s", out)
	}
	s.Cycles, _ = strconv.ParseUint(string(m[1]), 10, 64)
	s.Injected, _ = strconv.ParseUint(string(m[2]), 10, 64)
	s.Delivered, _ = strconv.ParseUint(string(m[3]), 10, 64)
	s.SupplyMW, _ = strconv.ParseFloat(string(p[1]), 64)
	s.Truncated = bytes.Contains(out, []byte("[drain truncated"))
	return s, nil
}

// checkSim applies the model-independent invariants to one simulation.
// bound is the fabric's supply-power ceiling (0 = unknown).
func checkSim(what string, s simStats, bound float64, mayTruncate bool) []string {
	var bad []string
	if s.Cycles == 0 {
		bad = append(bad, what+": simulated 0 cycles")
	}
	if s.Delivered > s.Injected {
		bad = append(bad, fmt.Sprintf("%s: delivered %d > injected %d", what, s.Delivered, s.Injected))
	}
	if s.Truncated && !mayTruncate {
		bad = append(bad, what+": drain truncated on a sub-saturation workload")
	}
	// The printed supply power is rounded to 0.1 mW.
	if bound > 0 && s.SupplyMW > bound+0.05 {
		bad = append(bad, fmt.Sprintf("%s: supply %.1f mW exceeds the fabric bound %.1f mW", what, s.SupplyMW, bound))
	}
	return bad
}

// checkTiers checks the per-tier lines of a hierarchical run: supply
// power under each tier's bound and every labeled packet delivered.
func checkTiers(what string, out []byte) []string {
	var bad []string
	tiers := reTier.FindAllSubmatch(out, -1)
	if len(tiers) == 0 {
		return []string{what + ": no tier lines in a hierarchical run's output"}
	}
	for i, t := range tiers {
		supply, _ := strconv.ParseFloat(string(t[1]), 64)
		bound, _ := strconv.ParseFloat(string(t[2]), 64)
		frac, _ := strconv.ParseFloat(string(t[3]), 64)
		if supply > bound+0.05 {
			bad = append(bad, fmt.Sprintf("%s: tier %d supply %.1f mW exceeds bound %.1f mW", what, i, supply, bound))
		}
		if frac != 1 {
			bad = append(bad, fmt.Sprintf("%s: tier %d delivered fraction %v on a fault-free run", what, i, frac))
		}
	}
	return bad
}

// supplyBound is the flat system's supply-power ceiling, read from an
// assembled (never stepped) System.
func supplyBound(cfg core.Config) (float64, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	return sys.Fabric().SupplyBoundMW(), nil
}

// state is a workload made ready by its set-up: op runs one timed
// operation, close releases what set-up started (a server, files).
type state interface {
	op(ctx context.Context, o *outcome)
	close(o *outcome)
}

// setupReps is how many times a run performs the workload's set-up; the
// reported setup_s is their median, which keeps one slow build or a cold
// page cache from deciding it.
const setupReps = 3

// measure is the untraced measurement of one workload: set up, then
// repeat the op for the given time. Every end-to-end metric comes from
// here.
func (b *bench) measure(ctx context.Context, w workload, seconds float64) (*outcome, error) {
	o := newOutcome()
	ref, err := b.reference(ctx, w)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	var st state
	for i := 0; i < setupReps && (i == 0 || !b.smoke); i++ {
		if st != nil {
			st.close(o)
		}
		t0 := time.Now()
		if st, err = b.setup(ctx, w, ref); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		o.add("setup_s", time.Since(t0).Seconds())
	}
	if ps, ok := st.(*procState); ok && w.kind == kindRun {
		// The counts erapid printed are the pinned ones too, unless the
		// command's flags and the library's Config have drifted apart.
		if want := b.pinned(w); want != nil {
			if got, _ := parseRun(ps.reference); got.Cycles != want.Cycles || got.Injected != want.Injected || got.Delivered != want.Delivered {
				b.logf("!! %s: SIMULATED STATISTICS CHANGED for seed %d: erapid printed %d cycles, %d injected, %d delivered; pinned %d, %d, %d (not a failed op)",
					w.name, b.seed, got.Cycles, got.Injected, got.Delivered, want.Cycles, want.Injected, want.Delivered)
			}
		}
	}
	minReps := 3
	if b.smoke {
		minReps = 1
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; ctx.Err() == nil && (n < minReps || time.Now().Before(deadline)); n++ {
		st.op(ctx, o)
	}
	st.close(o)
	return o, ctx.Err()
}

// refs are the constants of a workload that the checks and the
// normalization need but no program under test prints. The benchmark
// computes them itself through the library, once and untimed: they are
// its own bookkeeping, not part of the system's set-up.
type refs struct {
	// bound is the supply-power ceiling of the workload's flat system
	// (0 for hierarchical runs, which print their own).
	bound float64
	// sweepNodeCycles is nodes x simulated cycles summed over the
	// sweep's jobs: erapid-sweep prints no cycle counts.
	sweepNodeCycles float64
}

func (b *bench) reference(ctx context.Context, w workload) (refs, error) {
	var r refs
	var err error
	if w.kind != kindRun || w.sim.Racks == 0 {
		if r.bound, err = supplyBound(w.layer.config(b.seed)); err != nil {
			return r, err
		}
	}
	if w.kind == kindSweep {
		series, err := sweep.RunContext(ctx, w.sweepRequest(b.seed))
		if err != nil {
			return r, fmt.Errorf("reference sweep: %w", err)
		}
		for _, s := range series {
			for _, p := range s.Points {
				r.sweepNodeCycles += float64(w.sim.nodes()) * float64(p.Result.Cycles)
			}
		}
	}
	return r, nil
}

// setup is everything a workload does before its first timed op: the
// build (a no-op check once built), a scratch directory, for service-mix
// the server start and cache priming, and one untimed warm-up op whose
// output becomes the reference the timed ops must reproduce byte for
// byte.
func (b *bench) setup(ctx context.Context, w workload, ref refs) (state, error) {
	if err := b.ensureBuilt(ctx); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.tmpDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	switch w.kind {
	case kindService:
		return b.setupService(ctx, w, dir, ref, nil)
	case kindSweep:
		st := &procState{w: w, dir: dir, bin: b.bin("erapid-sweep"), args: w.sweepArgs(b.seed),
			jobs: float64(w.sweepJobs()), nodeCycles: ref.sweepNodeCycles}
		return st, st.warmup(ctx)
	default:
		st := &procState{w: w, dir: dir, bin: b.bin("erapid"), args: w.sim.args(b.seed), jobs: 1, bound: ref.bound}
		return st, st.warmup(ctx)
	}
}

// procState is a set-up process-per-op workload (erapid, erapid-sweep).
type procState struct {
	w    workload
	dir  string
	bin  string
	args []string
	// reference is the warm-up op's standard output.
	reference []byte
	bound     float64 // supply ceiling of a flat run
	// nodeCycles and jobs are what one op simulates.
	nodeCycles, jobs float64
}

func (s *procState) warmup(ctx context.Context) error {
	out, errOut, _, err := runProc(ctx, s.dir, s.bin, s.args...)
	if err != nil {
		return fmt.Errorf("warm-up op: %w\n%s", err, errOut)
	}
	if bad := s.check(out); len(bad) > 0 {
		return fmt.Errorf("warm-up op: %v", bad)
	}
	s.reference = out
	return nil
}

// check validates one op's output and, for erapid, reads the simulated
// cycle count that normalizes its wall-clock.
func (s *procState) check(out []byte) []string {
	if s.w.kind == kindSweep {
		var bad []string
		for _, p := range s.w.patterns {
			if !bytes.Contains(out, []byte(p+" traffic")) {
				bad = append(bad, fmt.Sprintf("%s: no figure for %s traffic in the output", s.w.name, p))
			}
		}
		return bad
	}
	stats, err := parseRun(out)
	if err != nil {
		return []string{err.Error()}
	}
	s.nodeCycles = float64(s.w.sim.nodes()) * float64(stats.Cycles)
	bad := checkSim(s.w.name, stats, s.bound, s.w.saturated)
	if s.w.sim.Racks > 0 {
		bad = append(bad, checkTiers(s.w.name, out)...)
	}
	return bad
}

func (s *procState) op(ctx context.Context, o *outcome) {
	out, errOut, st, err := runProc(ctx, s.dir, s.bin, s.args...)
	var bad []string
	if err != nil {
		bad = append(bad, fmt.Sprintf("%s: %v: %s", s.w.name, err, bytes.TrimSpace(errOut)))
	} else {
		bad = s.check(out)
		if !bytes.Equal(out, s.reference) {
			bad = append(bad, s.w.name+": output differs from the warm-up op's (nondeterminism)")
		}
	}
	o.op(bad)
	if err != nil {
		return
	}
	o.add("run_wall_s", st.wall)
	o.add("run_cpu_s", st.cpu)
	o.add("peak_rss_mb", st.rssMB)
	o.add("node_cycles_per_s", s.nodeCycles/st.wall)
	o.add("jobs_per_s", s.jobs/st.wall)
}

func (s *procState) close(*outcome) {}
