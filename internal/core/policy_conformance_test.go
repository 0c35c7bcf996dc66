package core

import (
	"reflect"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/traffic"
)

// This file is the policy conformance battery: every policy registered
// in internal/policy is pushed through the engine's core invariants —
// faulted flit conservation, the supply-power bound, and the
// steady-state allocation budget; the cell matrix runs each policy in
// every mode, on the parallel engine in the B modes
// (TestPolicyConformanceDeterminism), and faulted (TestCells). The lists
// come from policy.Names(), so registering a new policy enrolls it with
// no test changes.

// conformanceConfig is the battery's reference operating point: the
// fast 16-node system under enough load that every policy has both
// idle links to shut down and congested ones to boost.
func conformanceConfig(mode Mode, name string) Config {
	cfg := fastConfig(mode)
	cfg.Pattern = traffic.Complement
	cfg.Load = 0.4
	cfg.Seed = 99
	cfg.Policy = &policy.Spec{Name: name}
	return cfg
}

// conformanceFaultSpec injects a permanent laser kill plus transient
// degradation and control-plane drops — the scenario where a policy
// could most plausibly leak or double-count flits.
func conformanceFaultSpec() *fault.Spec {
	return &fault.Spec{
		Seed: 7,
		Events: []fault.Event{
			{At: 2500, Kind: fault.KindLaserKill, Board: 1, Wavelength: 2, Dest: 3},
		},
		LaserDegradeRate: 0.005,
		DegradeCycles:    200,
		CtrlDropRate:     0.02,
	}
}

// TestPolicyConformanceFaultedConservation drives each policy through
// a faulted run to quiescence and checks the two physical invariants
// no policy may break: exact flit conservation (injected = delivered +
// dropped, every queue empty) and the supply-power bound (no schedule
// can average above all-populated-lasers-at-top).
func TestPolicyConformanceFaultedConservation(t *testing.T) {
	for _, name := range policy.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := conformanceConfig(PB, name)
			cfg.Faults = conformanceFaultSpec()
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := drainConserves(s); err != nil {
				t.Fatalf("policy %s: %v", name, err)
			}
		})
	}
}

// TestPolicyConformanceStepNoAllocs holds every policy to the
// steady-state allocation budget: selecting a policy must not perturb
// the per-cycle hot path (the oracle's profiling pre-pass runs inside
// NewSystem, before the span measured).
func TestPolicyConformanceStepNoAllocs(t *testing.T) {
	for _, name := range policy.Names() {
		t.Run(name, func(t *testing.T) {
			assertStepAllocs(t, conformanceConfig(PB, name))
		})
	}
}

// TestPolicyConformanceCallNoAllocs gates the policy calls themselves:
// once warm, Power and Bandwidth must be allocation-free — they run
// once per laser (DPM) or per board pair (DBR) every window on the
// controller's serial critical path.
func TestPolicyConformanceCallNoAllocs(t *testing.T) {
	const boards = 4
	for _, name := range policy.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			lad := power.PaperLadder()
			pol, err := policy.New(&policy.Spec{Name: name}, policy.Params{
				Board:      1,
				Boards:     boards,
				Thresholds: ctrl.PaperPB(),
				Ladder:     lad,
				MaxHold:    4,
				Window:     2000,
				Seed:       1,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx := policy.BandwidthCtx{
				StaticOwner:  func(w int) int { return (1 + w) % boards },
				LaserHealthy: func(s, w int) bool { return true },
			}
			obs := make([]policy.ChanObs, boards)
			assign := make([]int, boards)
			powerObs := policy.LinkObs{Wavelength: 1, Dest: 2, Level: 1, LinkUtil: 0.5, BufUtil: 0.1, QueueLen: 1}
			window := uint64(0)
			call := func() {
				window++
				pol.Power(powerObs)
				for w := 1; w < boards; w++ {
					obs[w] = policy.ChanObs{Holder: ctx.StaticOwner(w), LinkUtil: 0.6, BufUtil: 0.2}
					assign[w] = obs[w].Holder
				}
				ctx.Window = window
				ctx.Repairs = 0
				pol.Bandwidth(&ctx, obs, assign)
			}
			// Warm the policy's lazily built scratch (EWMA state, the
			// oracle's one-time plan) before measuring.
			for i := 0; i < 3; i++ {
				call()
			}
			if allocs := testing.AllocsPerRun(200, call); allocs != 0 {
				t.Errorf("policy %s: Power+Bandwidth allocate %.2f/op once warm, want 0", name, allocs)
			}
		})
	}
}

// TestPaperPolicyMatchesNilPolicy pins the central compatibility
// promise: selecting the paper policy explicitly — by name, by JSON
// spec with default knobs, or sloppily capitalized — is bit-identical
// to not selecting a policy at all.
func TestPaperPolicyMatchesNilPolicy(t *testing.T) {
	base := fastConfig(PB)
	base.Pattern = traffic.Complement
	base.Load = 0.4
	base.Seed = 4242
	want := mustRun(t, base)
	for _, selector := range []string{"paper", " PAPER ", `{"name":"paper"}`} {
		spec, err := policy.ParseSpec(selector)
		if err != nil {
			t.Fatalf("selector %q: %v", selector, err)
		}
		cfg := base
		cfg.Policy = spec
		got := mustRun(t, cfg)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("selector %q diverged from the nil-policy run:\nnil:  %+v\ngot:  %+v", selector, want, got)
		}
	}
}

// TestPolicyDigests checks how policies participate in the config
// content digest: the paper baseline canonicalizes away (so existing
// cached results stay valid), every other policy gets its own digest,
// and tuning a knob changes the digest again.
func TestPolicyDigests(t *testing.T) {
	base := fastConfig(PB)
	digest := func(spec *policy.Spec) string {
		cfg := base
		cfg.Policy = spec
		return cfg.Digest()
	}
	nilDigest := digest(nil)
	if d := digest(&policy.Spec{Name: "paper"}); d != nilDigest {
		t.Errorf("explicit paper spec changed the digest: %s vs %s", d, nilDigest)
	}
	seen := map[string]string{"": nilDigest}
	for _, name := range policy.Names() {
		if name == policy.Paper {
			continue
		}
		d := digest(&policy.Spec{Name: name})
		for prev, pd := range seen {
			if d == pd {
				t.Errorf("policy %q and %q share a digest", name, prev)
			}
		}
		seen[name] = d
	}
	if a, b := digest(&policy.Spec{Name: "ewma"}), digest(&policy.Spec{Name: "ewma", Alpha: 0.2}); a == b {
		t.Error("tuning ewma alpha did not change the digest")
	}
}
