// System.Reset: pooled reuse of an assembled system across runs.
//
// NewSystem's cost at scale is dominated by structures whose shape
// depends only on the topology and the per-component capacities: the
// fabric's channel/transmitter slabs and laser chunks, the engine,
// and the packet block pool. Reset rewinds all of that in place and
// then runs initRun — the per-run initialiser NewSystem itself ends
// with — so a fleet that replays many runs on one topology (sweep
// workers, the policy compare harness, the service worker pool) skips
// reconstruction entirely. A reset system is bit-identical to a fresh
// NewSystem with the same config: same Result, same telemetry stream,
// same digest.
package core

import (
	"context"
	"fmt"

	"repro/internal/telemetry"
)

// resetIncompat reports which structural aspect of the configuration
// changed, or "" when cfg can be applied by Reset. The structural
// fields are exactly those baked into retained slabs at construction:
// the topology, the electrical router shape, the packet format and the
// optical fabric parameters. Everything else — mode, policy, window,
// workload, seed, faults, measurement spans — is per-run
// state that Reset rebuilds.
func resetIncompat(old, cfg Config) string {
	switch {
	case cfg.Clusters != old.Clusters, cfg.Boards != old.Boards, cfg.NodesPerBoard != old.NodesPerBoard:
		return "topology"
	case cfg.VCs != old.VCs, cfg.BufDepth != old.BufDepth, cfg.FlitCyclesElec != old.FlitCyclesElec, cfg.EjectDepth != old.EjectDepth:
		return "electrical router shape"
	case cfg.PacketBytes != old.PacketBytes, cfg.FlitBytes != old.FlitBytes:
		return "packet format"
	case cfg.CycleNS != old.CycleNS, cfg.PropCyclesOpt != old.PropCyclesOpt, cfg.RelockCycles != old.RelockCycles,
		cfg.LaserQueueCap != old.LaserQueueCap, cfg.PowerLevels != old.PowerLevels, cfg.PortRadius != old.PortRadius:
		return "optical fabric shape"
	}
	return ""
}

// ResetCompatible reports whether cfg can be applied to this system by
// Reset: the topology and every slab-shaping parameter must match the
// system's current configuration. Mode, policy, window, workload,
// seed, faults and measurement spans may all differ.
func (s *System) ResetCompatible(cfg Config) bool {
	return resetIncompat(s.cfg, cfg) == ""
}

// Reset rewinds the system to the state a fresh NewSystem(cfg) would
// produce, reusing the engine, the optical fabric's slabs, the packet
// pool and the topology. cfg must be structurally compatible with the
// system's original configuration (see ResetCompatible); otherwise an
// error is returned and the system is left untouched. On any later
// error the system is in an undefined state, exactly as if NewSystem
// had failed — discard it.
//
// Reset may be called after a completed run (the normal pooled-reuse
// case) or on a system that was never stepped; a run in progress is
// abandoned. The subsequent run is bit-identical to one on a fresh
// system with the same config.
func (s *System) Reset(cfg Config) error {
	if reason := resetIncompat(s.cfg, cfg); reason != "" {
		return fmt.Errorf("core: Reset: %s changed, which requires reconstruction; use NewSystem", reason)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	// Tear down live execution state: the old RCs' pending callbacks go
	// with the engine's event queue (no RC owns a goroutine), and the
	// engine and fabric rewind in place.
	s.eng.Reset()
	s.fab.Reset()
	// Clear per-run accounting and attachments, then rewind the electrical
	// domain in place: NICs, IBI routers, ejectors and receivers keep their
	// wiring (sinks, credit paths, deliver callbacks all point at retained
	// objects). Recycled packets in the free pool carry over: injectOne
	// fully re-stamps them.
	s.nextPkt = 0
	s.injected, s.delivered, s.droppedByFault = 0, 0, 0
	s.cycle, s.nextCycle = 0, 0
	s.tel = nil
	s.sinks = nil
	s.telemetry = nil
	for _, bd := range s.boards {
		bd.ibi.Reset()
		for _, sink := range bd.ejects {
			sink.Reset()
		}
		for _, rx := range bd.rxSources {
			rx.Reset()
		}
		bd.rrW = 0
		bd.routeWS = bd.routeWS[:0]
	}
	for _, nic := range s.nics {
		nic.Reset()
	}
	for i := range s.deliveredPerNode {
		s.deliveredPerNode[i] = 0
	}
	return s.initRun(cfg, nil)
}

// Runner executes simulation runs back-to-back, transparently reusing
// one pooled System across structurally compatible configurations via
// Reset and falling back to fresh construction when the shape changes.
// It is the one place a Config is dispatched to an engine: flat configs
// run on the pooled System, multi-tier configs on the hierarchical
// engine over pooled rack and fabric sub-Runners. The zero value is
// ready to use. A Runner is not safe for concurrent use: give each
// worker goroutine of a fleet (sweep workers, service workers) its own,
// so repeat jobs on one topology skip slab, heap and topology
// reconstruction entirely.
type Runner struct {
	sys *System
	// rack and fab pool the subsystems of hierarchical runs: consecutive
	// multi-tier jobs on one shape reset the rack and fabric slabs in
	// place.
	rack, fab *Runner

	// sinks and telCfg are the observation requests for the next run
	// (AttachSink, EnableTelemetry); RunContext consumes them.
	sinks  []telemetry.Sink
	telCfg *TelemetryConfig
	// tels is what the last run collected.
	tels []HierTelemetry
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
// run, one per subsystem for a hierarchical run (series prefixed
// "tier0/rack<i>/" or "tier1/"). Nil unless EnableTelemetry preceded
// the run.
func (r *Runner) Telemetries() []HierTelemetry { return r.tels }

// system returns a system assembled for cfg: the pooled one reset in
// place when structurally compatible, a fresh construction otherwise.
func (r *Runner) system(cfg Config) (*System, error) {
	if sys := r.sys; sys != nil && sys.ResetCompatible(cfg) {
		if err := sys.Reset(cfg); err == nil {
			return sys, nil
		}
		// A failed Reset leaves the system undefined; drop it and
		// reconstruct (an invalid cfg fails NewSystem identically).
		r.sys = nil
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	r.sys = sys
	return sys, nil
}

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
	sys, err := r.system(cfg)
	if err != nil {
		return nil, err
	}
	if r.telCfg != nil {
		r.tels = []HierTelemetry{{Prefix: r.telCfg.Prefix, T: sys.EnableTelemetry(*r.telCfg)}}
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
