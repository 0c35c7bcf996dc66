package sweep_test

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// compareScenarios is the golden comparison set: the paper's 64-node
// P-B system at the headline point, at an idle-skewed point
// (complement pairs boards one-to-one, so most wavelength channels
// carry nothing), and under a fault schedule that kills a laser the
// complement flow 1 -> 6 actually uses. Cycle counts match
// erapid compare -quick.
func compareScenarios() []sweep.Scenario {
	base := core.DefaultConfig(core.PB)
	base.Seed = 1
	base.WarmupCycles = 8000
	base.MeasureCycles = 5000
	base.DrainLimitCycles = 60000

	headline := base
	headline.Pattern = traffic.Uniform
	headline.Load = 0.5

	idle := base
	idle.Pattern = traffic.Complement
	idle.Load = 0.3

	faulted := base
	faulted.Pattern = traffic.Complement
	faulted.Load = 0.4
	faulted.Faults = &fault.Spec{
		Seed: 2,
		Events: []fault.Event{
			{At: 6000, Kind: fault.KindLaserKill, Board: 1, Wavelength: 3, Dest: 6},
		},
		LaserDegradeRate: 0.002,
		DegradeCycles:    200,
		CtrlDropRate:     0.01,
	}

	return []sweep.Scenario{
		{Name: "headline", Config: headline},
		{Name: "idle-skew", Config: idle},
		{Name: "faulted", Config: faulted},
	}
}

// TestCompareGolden locks the complete cross-policy comparison — every
// metric column, the per-policy config digests, and the Pareto
// marking — byte for byte against a golden file, and asserts the
// headline claims the comparison exists to demonstrate. Regenerate
// with -update after intentional behavior changes.
func TestCompareGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node comparison runs take a few seconds each")
	}
	cmps, err := sweep.Compare(context.Background(), sweep.CompareRequest{Scenarios: compareScenarios()})
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := report.WriteCompareTable(&b, cmps); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "compare.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if b.String() != string(want) {
		t.Errorf("comparison table drifted from golden:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}

	outcome := func(scenario, pol string) sweep.PolicyOutcome {
		for _, cmp := range cmps {
			if cmp.Scenario.Name != scenario {
				continue
			}
			for _, o := range cmp.Outcomes {
				if o.Policy == pol {
					return o
				}
			}
		}
		t.Fatalf("no outcome for %s/%s", scenario, pol)
		return sweep.PolicyOutcome{}
	}

	// The power-saving claim: on idle-skewed traffic an aggressive
	// shutdown policy must spend strictly less supply power than the
	// paper's one-rung-per-window baseline.
	greedy, paper := outcome("idle-skew", "greedy-off"), outcome("idle-skew", "paper")
	if greedy.Result.PowerSupplyMW >= paper.Result.PowerSupplyMW {
		t.Errorf("idle-skew: greedy-off supply %.4f mW is not strictly below paper %.4f mW",
			greedy.Result.PowerSupplyMW, paper.Result.PowerSupplyMW)
	}

	for _, cmp := range cmps {
		// Every policy must produce its own digest (the service cache key),
		// and the paper row's digest must equal the spec-less config's.
		seen := map[string]string{}
		for _, o := range cmp.Outcomes {
			if prev, dup := seen[o.Digest]; dup {
				t.Errorf("%s: policies %s and %s share digest %s", cmp.Scenario.Name, prev, o.Policy, o.Digest)
			}
			seen[o.Digest] = o.Policy
		}
		nilCfg := cmp.Scenario.Config
		nilCfg.Policy = nil
		if d := outcome(cmp.Scenario.Name, "paper").Digest; d != nilCfg.Digest() {
			t.Errorf("%s: paper digest %s differs from the nil-policy digest %s", cmp.Scenario.Name, d, nilCfg.Digest())
		}
		frontier := 0
		for _, o := range cmp.Outcomes {
			if o.Pareto {
				frontier++
			}
		}
		if frontier == 0 {
			t.Errorf("%s: empty Pareto frontier", cmp.Scenario.Name)
		}
	}
}

// TestCompareDefaultsAndCancel covers the request plumbing: an empty
// scenario list is a no-op, defaulted policies come from the registry
// in sorted order, and a pre-cancelled context yields errors rather
// than a hang.
func TestCompareDefaultsAndCancel(t *testing.T) {
	if cmps, err := sweep.Compare(context.Background(), sweep.CompareRequest{}); cmps != nil || err != nil {
		t.Fatalf("empty request: got %v, %v", cmps, err)
	}
	specs := sweep.DefaultPolicySpecs()
	names := policy.Names()
	if len(specs) != len(names) {
		t.Fatalf("DefaultPolicySpecs returned %d specs for %d registered policies", len(specs), len(names))
	}
	for i, s := range specs {
		if s.CanonicalName() != names[i] {
			t.Errorf("spec %d: %q, want %q", i, s.CanonicalName(), names[i])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := compareScenarios()[:1]
	cmps, err := sweep.Compare(ctx, sweep.CompareRequest{Scenarios: sc})
	if err == nil {
		t.Fatal("cancelled compare returned no error")
	}
	for _, o := range cmps[0].Outcomes {
		if o.Err == nil {
			t.Errorf("policy %s: no error after pre-cancelled context", o.Policy)
		}
		if o.Pareto {
			t.Errorf("policy %s: failed run marked Pareto", o.Policy)
		}
	}
}
