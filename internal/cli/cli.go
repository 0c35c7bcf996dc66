// Package cli is the erapid command line. `erapid [flags]` runs one
// simulation; `erapid sweep|compare|tables|verify [flags]` runs the
// paper's figures, the policy comparison, Table 1 and Fig. 3 and the
// claim checks. erapid-serve, the HTTP job service, is built from the
// same package (Serve). Every flag that sets a core.Config field is
// bound to that field by the flags type below, and each command
// registers the subset it takes.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	rtpprof "runtime/pprof"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/traffic"
)

// synopsis is the first line of `erapid -h`.
const synopsis = "usage: erapid [flags] | erapid sweep|compare|tables|verify [flags] (the job service is erapid-serve)"

// Main runs erapid on os.Args, or with a name the subcommand of that
// name, and exits: 0 on success, 2 on bad input and 1 on a failure at
// run time. The name "" runs `erapid`, whose first argument may name a
// subcommand.
func Main(name string) {
	args := os.Args[1:]
	if name == "" && len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	cmd, ok := map[string]func([]string) error{
		"": runCmd, "sweep": sweepCmd, "compare": compareCmd, "tables": tablesCmd, "verify": verifyCmd,
	}[name]
	err := usagef("erapid: unknown subcommand %q\n%s", name, synopsis)
	if ok {
		err = cmd(args)
	}
	exit(err)
}

// Serve runs erapid-serve on os.Args and exits like Main. It is not an
// erapid subcommand: the net/http server and TLS code it links would
// grow every simulation run's resident set by about 1.4 MB, 18 % of a
// 64-node run's.
func Serve() { exit(serveCmd(os.Args[1:])) }

// exit ends the process with the status err maps to.
func exit(err error) {
	if err == nil {
		os.Exit(0)
	}
	fmt.Fprintln(os.Stderr, err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

// usageError marks bad input: a command that returns one exits 2.
type usageError struct{ error }

func usagef(format string, args ...any) error { return usageError{fmt.Errorf(format, args...)} }

// flags is one command's flag set and the core.Config its flags bind to.
type flags struct {
	*flag.FlagSet
	cfg  core.Config // the flags' defaults, then their values
	base core.Config // cfg before any flag bound to it
	// after holds, per flag name, a check or conversion that runs on
	// the value the user gave, once parsing is done; its error is bad
	// input.
	after    map[string]func(value string) error
	config   string // -config path
	cpu, mem string // -cpuprofile and -memprofile paths
}

func newFlags(name string, base core.Config) *flags {
	return &flags{
		FlagSet: flag.NewFlagSet(name, flag.ExitOnError),
		cfg:     base,
		base:    base,
		after:   map[string]func(string) error{},
	}
}

// parse parses args and starts any profile asked for; the caller defers
// the returned stop. A -config file replaces the flag defaults, and the
// flags given are then parsed again on top of it.
func (f *flags) parse(args []string) (stop func(), err error) {
	_ = f.Parse(args) // ExitOnError: a bad flag or -h has already exited
	if f.NArg() > 0 {
		return nil, usagef("%s: unexpected argument %q", f.Name(), f.Arg(0))
	}
	if f.config != "" {
		if f.cfg, err = core.LoadConfig(f.config, f.base); err != nil {
			return nil, usageError{err}
		}
		_ = f.Parse(args)
	}
	f.Visit(func(fl *flag.Flag) {
		if after := f.after[fl.Name]; after != nil && err == nil {
			err = after(fl.Value.String())
		}
	})
	if err != nil {
		return nil, usageError{err}
	}
	return f.startProfile()
}

// count registers an int flag that must not be negative.
func (f *flags) count(p *int, name string, value int, usage string) {
	f.IntVar(p, name, value, usage)
	f.nonNegative(name)
}

// nonNegative makes a negative value of the named flag bad input.
func (f *flags) nonNegative(name string) {
	f.after[name] = func(v string) error {
		if strings.HasPrefix(v, "-") {
			return fmt.Errorf("%s: -%s %s: must not be negative", f.Name(), name, v)
		}
		return nil
	}
}

// convert registers a string flag whose value the user gave is turned
// into Config fields by set.
func (f *flags) convert(name, value, usage string, set func(string) error) {
	f.String(name, value, usage)
	f.after[name] = set
}

// The Config flags. Each binds one core.Config field; where commands
// word a flag differently, usage is the command's text.

func (f *flags) topology() {
	f.IntVar(&f.cfg.Boards, "boards", 8, "boards B")
	f.IntVar(&f.cfg.NodesPerBoard, "nodes", 8, "nodes per board D")
}

func (f *flags) seed(usage string) { f.Uint64Var(&f.cfg.Seed, "seed", 1, usage) }

func (f *flags) policy(usage string) {
	f.convert("policy", "", usage, func(v string) (err error) {
		f.cfg.Policy, err = policy.ParseSpec(v)
		return err
	})
}

func (f *flags) quick(usage string) {
	f.Bool("quick", false, usage)
	f.after["quick"] = func(v string) error {
		if v == "true" {
			f.cfg.WarmupCycles, f.cfg.MeasureCycles, f.cfg.DrainLimitCycles = 8000, 5000, 60000
		}
		return nil
	}
}

// run binds the flags of one simulation run and -config.
func (f *flags) run() {
	f.topology()
	f.seed("random seed")
	f.policy("reconfiguration policy: a name (paper, greedy-off, ewma, oracle-static) or a JSON spec like {\"name\":\"ewma\",\"alpha\":0.2}")
	f.convert("mode", "P-B", "network mode: NP-NB, P-NB, NP-B or P-B", func(v string) (err error) {
		f.cfg.Mode, err = core.ParseMode(v)
		return err
	})
	f.StringVar(&f.cfg.Pattern, "pattern", traffic.Uniform, "traffic pattern (uniform, complement, butterfly, shuffle, transpose, bitreverse, tornado, neighbor, hotspot)")
	f.Float64Var(&f.cfg.Load, "load", 0.5, "offered load as a fraction of uniform network capacity")
	f.Float64Var(&f.cfg.InjectionRate, "rate", 0, "absolute injection rate in packets/node/cycle (overrides -load)")
	f.convert("tiers", "", "hierarchical topology as rack=BxD,count=R (e.g. rack=8x8,count=16): R racks of BxD plus the inter-rack fabric; overrides -boards/-nodes", func(v string) (err error) {
		f.cfg.Tiers, err = parseTiers(v)
		return err
	})
	f.Uint64Var(&f.cfg.Window, "window", 2000, "reconfiguration window R_w in cycles")
	f.IntVar(&f.cfg.MaxHold, "maxhold", 4, "max channels one flow may hold (0 = unlimited)")
	f.Uint64Var(&f.cfg.WarmupCycles, "warmup", 20000, "warm-up cycles")
	f.Uint64Var(&f.cfg.MeasureCycles, "measure", 10000, "measurement cycles")
	f.Uint64Var(&f.cfg.DrainLimitCycles, "drain", 300000, "drain limit cycles")
	f.convert("faults", "", "load a JSON fault-injection spec (see internal/fault)", func(v string) (err error) {
		f.cfg.Faults, err = fault.LoadSpec(v)
		return err
	})
	f.StringVar(&f.config, "config", "", "load a JSON config file (flags override it)")
}

// profile registers -cpuprofile and -memprofile.
func (f *flags) profile() {
	f.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile to this file")
	f.StringVar(&f.mem, "memprofile", "", "write a heap profile to this file at exit")
}

// startProfile begins the CPU profile, if asked for, and returns the
// function that ends it and writes the heap profile.
func (f *flags) startProfile() (stop func(), err error) {
	var cpu *os.File
	if f.cpu != "" {
		if cpu, err = os.Create(f.cpu); err != nil {
			return nil, usagef("cpuprofile: %w", err)
		}
		if err := rtpprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, usagef("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			rtpprof.StopCPUProfile()
			cpu.Close()
		}
		if f.mem != "" {
			runtime.GC() // materialize up-to-date allocation stats
			if err := writeFile(f.mem, rtpprof.WriteHeapProfile); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}

// writeFile creates path, fills it through write, closes it and reports
// it on stderr.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return closeFile(f, write(f))
}

// closeFile closes an output file that writing left with err, and
// reports it on stderr when both succeeded.
func closeFile(f *os.File, err error) error {
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintln(os.Stderr, "wrote", f.Name())
	}
	return err
}

// parseList parses a comma-separated flag value item by item, dropping
// blanks; a list that names nothing is an error.
func parseList[T any](s, what string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok == "" {
			continue
		}
		v, err := parse(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no %s given", what)
	}
	return out, nil
}

// signalContext is cancelled by SIGINT or SIGTERM.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
}
