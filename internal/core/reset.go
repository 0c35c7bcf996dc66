// System.Reset: pooled reuse of an assembled system across runs.
//
// NewSystem's cost at scale is dominated by structures whose shape
// depends only on the topology and the per-component capacities: the
// fabric's channel/laser/transmitter slabs (O(B³) lasers), the engine,
// and the packet block pool. Reset rewinds all of that in place and
// rebuilds only the genuinely per-run state — controllers (the policy
// may differ), injectors (seed, pattern, rate), fault injector,
// measurement — so a fleet that replays many runs on one topology
// (sweep replication, the policy compare harness, the service worker
// pool) skips reconstruction entirely. A reset system is
// bit-identical to a fresh NewSystem with the same config: same
// Result, same telemetry stream, same digest.
package core

import (
	"context"
	"fmt"

	"repro/internal/ctrl"
	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/stats"
)

// resetIncompat reports which structural aspect of the configuration
// changed, or "" when cfg can be applied by Reset. The structural
// fields are exactly those baked into retained slabs at construction:
// the topology, the electrical router shape, the packet format and the
// optical fabric parameters. Everything else — mode, policy, window,
// workload, seed, faults, measurement spans, workers — is per-run
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
// seed, faults, measurement spans and worker count may all differ.
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
	if _, err := cfg.topology(); err != nil {
		return err
	}
	ladder, err := cfg.ladder()
	if err != nil {
		return err
	}
	// Tear down live execution state. The old worker pool is closed (a
	// completed run's teardown already did; Close is idempotent) and the
	// engine and fabric rewind in place.
	if s.par != nil {
		s.par.pool.Close()
		s.par = nil
	}
	s.eng.Reset()
	s.fab.Reset()
	// Rebuild the control plane: RC processes are engine processes (the
	// old ones died with the previous run) and the policy may differ.
	cc := cfg.ctrlConfig()
	if cc.Policy.CanonicalName() == "oracle-static" {
		prof, err := oracleProfile(cfg, ladder)
		if err != nil {
			return fmt.Errorf("core: oracle profiling pre-pass: %w", err)
		}
		spec := cc.Policy
		cc.NewPolicy = func(b int) policy.Policy {
			return policy.NewOracleStatic(policyParams(cfg, cc, ladder, b, spec), prof)
		}
	}
	ctl, err := ctrl.NewSystem(s.top, s.fab, s.eng, cc)
	if err != nil {
		return err
	}
	s.cfg = cfg
	s.ctl = ctl
	s.meas = stats.NewMeasurement(cfg.WarmupCycles, cfg.MeasureCycles)
	s.lastPhase = -1
	s.faults = nil
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		inj, err := fault.New(s.fab, cfg.Window, cfg.Seed, cfg.Faults)
		if err != nil {
			return err
		}
		s.faults = inj
		s.fab.SetDropHook(s.onFaultDrop)
		if cfg.Faults.HasCtrlFaults() {
			ctl.SetRingFault(inj)
		}
	}
	// Clear per-run accounting and attachments, then rewind the electrical
	// domain in place: NICs, IBI routers, ejectors and receivers keep their
	// wiring (sinks, credit paths, deliver callbacks all point at retained
	// objects) and only the injectors — whose construction depends on
	// per-run parameters — are rebuilt. Recycled packets in the free pool
	// carry over: injectOne fully re-stamps them.
	s.nextPkt = 0
	s.injected, s.delivered, s.droppedByFault = 0, 0, 0
	s.cycle, s.nextCycle = 0, 0
	s.tel = nil
	s.sinks = nil
	s.telemetry = nil
	s.phaseProf = nil
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
	if err := s.buildInjectors(); err != nil {
		return err
	}
	if cfg.Workers > 1 {
		s.enableParallel(cfg.Workers)
	}
	if cfg.PhaseProfile {
		s.enablePhaseProfile()
	}
	return nil
}

// ResetSeed is Reset with only the seed changed: the replication fast
// path (sweep.Replicate steps the seed per replicate on an otherwise
// fixed config).
func (s *System) ResetSeed(seed uint64) error {
	cfg := s.cfg
	cfg.Seed = seed
	return s.Reset(cfg)
}

// Runner executes simulation runs back-to-back, transparently reusing
// one pooled System across structurally compatible configurations via
// Reset and falling back to fresh construction when the shape changes.
// The zero value is ready to use. A Runner is not safe for concurrent
// use: give each worker goroutine of a fleet (sweep workers, service
// workers) its own, so repeat jobs on one topology skip slab, heap and
// topology reconstruction entirely.
type Runner struct {
	sys *System
	// rack and fab pool the subsystems of hierarchical runs (see
	// Runner.Hier): consecutive multi-tier jobs on one shape reset the
	// rack and fabric slabs in place.
	rack *Runner
	fab  *Runner
}

// System returns a system assembled for cfg: the pooled one reset in
// place when structurally compatible, a fresh construction otherwise.
// The caller owns the returned system until its run completes (attach
// sinks before stepping); the Runner retains it for the next call.
func (r *Runner) System(cfg Config) (*System, error) {
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

// RunContext executes one run of cfg through the pooled system,
// bit-identical to core.RunContext(ctx, cfg). Multi-tier configs run
// through the hierarchical engine on pooled rack/fabric subsystems.
func (r *Runner) RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.MultiTier() {
		h, err := r.Hier(cfg)
		if err != nil {
			return nil, err
		}
		return h.RunContext(ctx)
	}
	sys, err := r.System(cfg)
	if err != nil {
		return nil, err
	}
	return sys.RunContext(ctx)
}

// Run is RunContext without cancellation.
func (r *Runner) Run(cfg Config) (*Result, error) {
	return r.RunContext(context.Background(), cfg)
}
