// Package prof holds the flag blocks the CLIs share: the standard pprof
// profiling flags, so simulator hot spots can be inspected with `go
// tool pprof` on real workloads (not just the microbenchmarks), and the
// run-shape flags every simulation command binds onto a core.Config.
package prof

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	rtpprof "runtime/pprof"

	"repro/internal/core"
	"repro/internal/policy"
)

// Flags holds the -cpuprofile/-memprofile flag values.
type Flags struct {
	cpu *string
	mem *string
}

// AddFlags registers -cpuprofile and -memprofile on the default flag
// set. Call before flag.Parse.
func AddFlags() *Flags {
	return &Flags{
		cpu: flag.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: flag.String("memprofile", "", "write a heap profile to this file at exit"),
	}
}

// Start begins CPU profiling if requested and returns a stop function
// that finishes the CPU profile and writes the heap profile. The stop
// function must run before the process exits normally (defer it in
// main); profiles are simply not written on error exits.
func (f *Flags) Start() (stop func(), err error) {
	var cpuFile *os.File
	if *f.cpu != "" {
		cpuFile, err = os.Create(*f.cpu)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := rtpprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			rtpprof.StopCPUProfile()
			cpuFile.Close()
		}
		if *f.mem != "" {
			mf, err := os.Create(*f.mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer mf.Close()
			runtime.GC() // materialize up-to-date allocation stats
			if err := rtpprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}

// AdminMux returns a mux serving the net/http/pprof endpoints under
// /debug/pprof/, for a daemon's loopback admin listener. Handlers are
// registered explicitly rather than through the package's
// DefaultServeMux init side effect, so importing prof never exposes
// profiling on an application mux by accident.
func AdminMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ConfigFlags holds the run-shape flags the simulation CLIs share.
type ConfigFlags struct {
	boards, nodes *int
	seed          *uint64
	policy        *string
	quick         *bool
}

// AddConfigFlags registers -boards, -nodes and -seed on the default
// flag set, plus -policy and -quick when given a usage string (each
// CLI words them for what it runs; "" leaves the flag out). Call before
// flag.Parse.
func AddConfigFlags(seedUsage, policyUsage, quickUsage string) *ConfigFlags {
	f := &ConfigFlags{
		boards: flag.Int("boards", 8, "boards B"),
		nodes:  flag.Int("nodes", 8, "nodes per board D"),
		seed:   flag.Uint64("seed", 1, seedUsage),
	}
	if policyUsage != "" {
		f.policy = flag.String("policy", "", policyUsage)
	}
	if quickUsage != "" {
		f.quick = flag.Bool("quick", false, quickUsage)
	}
	return f
}

// Apply binds the shared flags onto cfg. visit is flag.VisitAll to
// apply every flag, defaults included, or flag.Visit to apply only the
// flags the user set (on top of a loaded config file, whose values the
// defaults must not clobber).
func (f *ConfigFlags) Apply(cfg *core.Config, visit func(func(*flag.Flag))) error {
	var err error
	visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "boards":
			cfg.Boards = *f.boards
		case "nodes":
			cfg.NodesPerBoard = *f.nodes
		case "seed":
			cfg.Seed = *f.seed
		case "policy":
			if *f.policy != "" {
				cfg.Policy, err = policy.ParseSpec(*f.policy)
			}
		case "quick":
			if *f.quick {
				cfg.WarmupCycles = 8000
				cfg.MeasureCycles = 5000
				cfg.DrainLimitCycles = 60000
			}
		}
	})
	return err
}
