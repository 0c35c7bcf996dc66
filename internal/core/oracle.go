package core

import (
	"repro/internal/ctrl"
	"repro/internal/policy"
	"repro/internal/power"
)

// policyParams assembles the per-board policy parameters core passes to
// policies it constructs directly (the profiled oracle instances); it
// mirrors what ctrl.NewSystem builds for registry-constructed policies,
// plus the run seed, which only core knows.
func policyParams(cfg Config, cc ctrl.Config, ladder *power.Ladder, board int, spec *policy.Spec) policy.Params {
	p := policy.Params{
		Board:      board,
		Boards:     cfg.Boards,
		Thresholds: cc.Thresholds,
		Ladder:     ladder,
		MaxHold:    cc.MaxHold,
		Window:     cc.Window,
		Seed:       cfg.Seed,
	}
	if spec != nil {
		p.Spec = *spec
	}
	return p
}

// oracleProfile runs the oracle-static profiling pre-pass: the same
// topology, traffic, seed and reconfiguration windows, but healthy
// (faults stripped — the oracle plans for the intended workload, not a
// particular failure trace), and under hold-everything Profiler
// policies that accumulate per-laser demand and per-channel occupancy
// over warm-up plus measurement. The averaged statistics
// become the Profile the oracle plans its fixed allocation from.
func oracleProfile(cfg Config, ladder *power.Ladder) (*policy.Profile, error) {
	pcfg := cfg
	pcfg.Faults = nil
	pcfg.Policy = nil
	cc := pcfg.ctrlConfig()
	profilers := make([]*policy.Profiler, cfg.Boards)
	s := new(System)
	if err := s.build(pcfg, func(b int) policy.Policy {
		pr := policy.NewProfiler(policyParams(pcfg, cc, ladder, b, nil))
		profilers[b] = pr
		return pr
	}); err != nil {
		return nil, err
	}
	s.StepN(pcfg.WarmupCycles + pcfg.MeasureCycles)
	return policy.BuildProfile(profilers), nil
}
