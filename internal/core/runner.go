// Runner: the one place a Config is dispatched to an engine.
package core

import (
	"context"

	"repro/internal/telemetry"
)

// Runner executes simulation runs back-to-back. It is the one place a
// Config is dispatched to an engine: flat configs run on the Runner's
// System, rebuilt for each run by Reset, multi-tier configs on the
// hierarchical engine. The zero value is ready to use. A Runner is not
// safe for concurrent use: give each worker goroutine of a fleet (sweep
// workers, service workers) its own.
type Runner struct {
	sys *System

	// sinks and telCfg are the observation requests for the next run
	// (AttachSink, EnableTelemetry); RunContext consumes them.
	sinks  []telemetry.Sink
	telCfg *TelemetryConfig
	// tels is what the last run collected.
	tels []*Telemetry
}

// AttachSink streams the next run's telemetry events into sink; a
// hierarchical run streams every subsystem's events in subsystem order
// (racks 0..R−1, then the fabric). The attachment lasts one run.
func (r *Runner) AttachSink(sink telemetry.Sink) {
	r.sinks = append(r.sinks, sink)
}

// EnableTelemetry arranges for the next run to collect per-window
// metrics; the collectors are available from Telemetries afterwards.
// Like AttachSink it lasts one run.
func (r *Runner) EnableTelemetry(tc TelemetryConfig) {
	r.telCfg = &tc
}

// Telemetries returns the collectors of the last run: one for a flat
// run, one per subsystem for a hierarchical run in subsystem order
// (racks 0..R−1, then the fabric; series prefixed "tier0/rack<i>/" or
// "tier1/"). Nil unless EnableTelemetry preceded the run.
func (r *Runner) Telemetries() []*Telemetry { return r.tels }

// RunContext executes one run of cfg with cooperative cancellation: the
// context is checked once per reconfiguration-window boundary, so a
// cancelled run returns within one R_w window with a partial Result and
// a *CancelledError (never a wedge, and never a perturbed result — the
// completed prefix is bit-identical to the uncancelled run).
//
// Multi-tier configurations (len(cfg.Tiers) >= 2) run on the
// hierarchical engine: R rack subsystems plus the inter-rack fabric,
// aggregated into one Result with a per-tier breakdown (Result.Tiers).
func (r *Runner) RunContext(ctx context.Context, cfg Config) (*Result, error) {
	r.tels = nil
	defer func() { r.sinks, r.telCfg = nil, nil }()
	if cfg.MultiTier() {
		h, err := NewHier(cfg)
		if err != nil {
			return nil, err
		}
		return h.run(ctx, r)
	}
	if r.sys == nil {
		r.sys = new(System)
	}
	sys := r.sys
	if err := sys.Reset(cfg); err != nil {
		return nil, err
	}
	if r.telCfg != nil {
		r.tels = []*Telemetry{sys.EnableTelemetry(*r.telCfg)}
	}
	for _, sink := range r.sinks {
		sys.AttachSink(sink)
	}
	return sys.RunContext(ctx)
}

// Run is RunContext without cancellation.
func (r *Runner) Run(cfg Config) (*Result, error) {
	return r.RunContext(context.Background(), cfg)
}
