package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/policy"
)

// Scenario is one operating point of a policy comparison: a complete
// run configuration (mode, pattern, load, seed, faults) under a
// human-readable name. The comparison overrides only Config.Policy, so
// every policy sees byte-identical traffic, faults and seeds.
type Scenario struct {
	Name   string
	Config core.Config
}

// Describe returns the scenario's one-line header for tables.
func (s Scenario) Describe() string {
	c := s.Config
	faults := "none"
	if c.Faults != nil && !c.Faults.Empty() {
		faults = fmt.Sprintf("%d events, degrade %.4g, ctrl-drop %.4g",
			len(c.Faults.Events), c.Faults.LaserDegradeRate, c.Faults.CtrlDropRate)
	}
	return fmt.Sprintf("%s: %s %s load %.2f seed %d (%dx%d, faults: %s)",
		s.Name, c.Mode, c.Pattern, c.Load, c.Seed, c.Boards, c.NodesPerBoard, faults)
}

// PolicyOutcome is one policy's run inside one scenario.
type PolicyOutcome struct {
	// Policy is the canonical policy name; Spec the full selector.
	Policy string
	Spec   *policy.Spec
	// Digest is the content digest of the exact configuration run —
	// the service result-cache key, so a compare row is reproducible
	// (and cacheable) byte for byte.
	Digest string
	Result *core.Result
	Err    error
	// Pareto marks outcomes on the scenario's Pareto frontier over
	// (supply power ↓, average latency ↓, availability ↑).
	Pareto bool
}

// Availability returns the outcome's delivered fraction (1 when the
// run completed without fault loss).
func (o PolicyOutcome) Availability() float64 {
	if o.Result == nil {
		return 0
	}
	return o.Result.DeliveredFraction
}

// Comparison is the full result of one scenario: one outcome per
// policy, in request order.
type Comparison struct {
	Scenario Scenario
	Outcomes []PolicyOutcome
}

// CompareRequest describes a cross-policy comparison: every policy
// runs every scenario on identical seeds.
type CompareRequest struct {
	Scenarios []Scenario
	// Policies defaults to one spec per registered policy, in sorted
	// name order.
	Policies []*policy.Spec
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// OnResult, if set, is called as each (scenario, policy) run
	// finishes; it may be called from multiple goroutines and before
	// Pareto marking.
	OnResult func(scenario string, o PolicyOutcome)
}

// DefaultPolicySpecs returns one spec per registered policy with
// default knobs, in sorted name order.
func DefaultPolicySpecs() []*policy.Spec {
	names := policy.Names()
	specs := make([]*policy.Spec, len(names))
	for i, n := range names {
		specs[i] = &policy.Spec{Name: n}
	}
	return specs
}

// Compare runs every policy over every scenario with bounded
// parallelism and cooperative cancellation, returning one Comparison
// per scenario in request order (outcomes in policy order, Pareto
// frontier marked), plus the joined errors of every failed run.
func Compare(ctx context.Context, req CompareRequest) ([]Comparison, error) {
	if len(req.Scenarios) == 0 {
		return nil, nil
	}
	specs := req.Policies
	if len(specs) == 0 {
		specs = DefaultPolicySpecs()
	}

	cmps := make([]Comparison, len(req.Scenarios))
	for si, sc := range req.Scenarios {
		cmps[si] = Comparison{Scenario: sc, Outcomes: make([]PolicyOutcome, len(specs))}
		for pi, spec := range specs {
			cmps[si].Outcomes[pi] = PolicyOutcome{Policy: spec.CanonicalName(), Spec: spec}
		}
	}

	var mu sync.Mutex
	forEachJob(ctx, req.Workers, len(cmps)*len(specs), func(runner *core.Runner, i int) {
		cmp := &cmps[i/len(specs)]
		o := &cmp.Outcomes[i%len(specs)]
		cfg := cmp.Scenario.Config
		cfg.Policy = o.Spec
		res, err := runner.RunContext(ctx, cfg)
		mu.Lock()
		o.Digest = cfg.Digest()
		o.Result, o.Err = res, err
		done := *o
		mu.Unlock()
		if req.OnResult != nil {
			req.OnResult(cmp.Scenario.Name, done)
		}
	})

	var errs []error
	for si := range cmps {
		for pi := range cmps[si].Outcomes {
			o := &cmps[si].Outcomes[pi]
			if o.Result == nil && o.Err == nil {
				o.Err = ctx.Err() // cancelled before dispatch
			}
			if o.Err != nil {
				errs = append(errs, fmt.Errorf("%s/%s: %w", cmps[si].Scenario.Name, o.Policy, o.Err))
			}
		}
		markPareto(cmps[si].Outcomes)
	}
	return cmps, errors.Join(errs...)
}

// markPareto sets Pareto on every outcome not dominated in (supply
// power, average latency, availability). Outcome a dominates b when a
// is no worse on all three axes and strictly better on at least one;
// failed runs never dominate and are never on the frontier.
func markPareto(outcomes []PolicyOutcome) {
	ok := func(o PolicyOutcome) bool { return o.Err == nil && o.Result != nil }
	dominates := func(a, b PolicyOutcome) bool {
		if a.Result.PowerSupplyMW > b.Result.PowerSupplyMW ||
			a.Result.AvgLatency > b.Result.AvgLatency ||
			a.Availability() < b.Availability() {
			return false
		}
		return a.Result.PowerSupplyMW < b.Result.PowerSupplyMW ||
			a.Result.AvgLatency < b.Result.AvgLatency ||
			a.Availability() > b.Availability()
	}
	for i := range outcomes {
		if !ok(outcomes[i]) {
			continue
		}
		outcomes[i].Pareto = true
		for j := range outcomes {
			if i != j && ok(outcomes[j]) && dominates(outcomes[j], outcomes[i]) {
				outcomes[i].Pareto = false
				break
			}
		}
	}
}
