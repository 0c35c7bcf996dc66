// Hierarchical (multi-tier) execution: racks of E-RAPID boards under an
// inter-rack WDM fabric.
//
// The engine decomposes a two-tier system into R+1 independent SRS
// subsystems, each simulated by the existing cycle engine with all of
// its machinery (flit slab, active sets, the cycle loop) intact:
//
//   - R tier-0 rack instances (B boards × D nodes) carry the intra-rack
//     share of the workload, fIntra = (B·D−1)/(N−1) of a uniform load;
//   - one tier-1 fabric instance — racks as "boards" (R × B·D) — carries
//     the inter-rack share under the board-aware "remote" pattern, with
//     its own lasers, DPM levels and power accounting.
//
// Each subsystem has its own RWA tables, Lock-Step controller ring,
// reconfiguration window and policy, so per-tier windows run genuinely
// independently. The subsystems exchange no packets: an inter-rack
// packet is modeled end-to-end by the tier-1 fabric (its serialization,
// reconfiguration and power), not re-injected into the destination
// rack's tier-0 SRS. That decomposition is what lets a 1k–4k-node
// system run at the flat engine's speed and allocation discipline; the
// omitted tier-0 gateway hop is documented in DESIGN.md and is the
// natural next refinement.
//
// Determinism: subsystems run sequentially with seeds derived from the
// run seed by a splitmix64 chain, and each subsystem is deterministic,
// so the whole hierarchical run is too.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ctrl"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// TierResult is one tier's slice of a hierarchical Result: entry 0
// aggregates the R rack instances, entry 1 is the inter-rack fabric.
// Quantile fields are sample-weighted means of the per-instance
// quantiles (exact for tier 1, an aggregate for tier 0's R racks).
type TierResult struct {
	// Tier is the level index: 0 = racks, 1 = inter-rack fabric.
	Tier int
	// Systems is how many SRS instances were simulated at this level.
	Systems int
	// Boards and NodesPerBoard give the per-instance SRS shape (racks
	// count as boards at tier 1).
	Boards        int
	NodesPerBoard int
	// Window is this tier's reconfiguration period R_w; Policy its
	// non-baseline policy name ("" = paper).
	Window uint64
	Policy string `json:",omitempty"`

	// Throughput and OfferedLoad are this tier's carried share in
	// packets per global node per cycle; tier shares sum to the run's
	// totals.
	Throughput  float64
	OfferedLoad float64

	AvgLatency float64
	P95Latency float64
	Samples    int

	// Power is summed over the tier's instances; SupplyBoundMW is the
	// static every-laser-at-top ceiling the measured supply power is
	// bounded by.
	PowerDynamicMW float64
	PowerSupplyMW  float64
	SupplyBoundMW  float64
	EnergyPerBitPJ float64

	// Ctrl sums the tier's Lock-Step protocol activity; Reassignments
	// etc. count reconfigurations per tier. Wakes counts DLS wake-ups.
	Ctrl  ctrl.Counters
	Wakes uint64

	Injected          uint64
	Delivered         uint64
	DeliveredFraction float64
	Truncated         bool `json:",omitempty"`
}

// deriveSeed maps (run seed, tier, instance) to a subsystem seed
// through two SplitMix64 outputs.
func deriveSeed(seed, tier, idx uint64) uint64 {
	s := seed ^ (tier+1)*0xa3c59ac2f1234567
	s = rng.SplitMix64(&s) + idx
	return rng.SplitMix64(&s)
}

// Hier is the plan of a hierarchical (multi-tier) simulation: the
// validated configuration and the derived per-rack and fabric subsystem
// configurations. Runner.RunContext builds one per multi-tier run and
// executes it.
type Hier struct {
	cfg     Config
	rackCfg Config // per-rack template; Seed is set per instance
	fabCfg  Config // tier-1 fabric: racks as boards
}

// NewHier validates a multi-tier configuration and plans its subsystem
// runs. Flat configurations are rejected — run them through NewSystem;
// Runner.RunContext dispatches automatically.
func NewHier(cfg Config) (*Hier, error) {
	if !cfg.MultiTier() {
		return nil, fmt.Errorf("core: NewHier needs a multi-tier config (len(Tiers) >= 2); use NewSystem for flat systems")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	h := &Hier{cfg: cfg}

	rate := cfg.Rate()
	fIntra := cfg.intraFraction()
	t0, t1 := cfg.Tiers[0], cfg.Tiers[1]

	// Per-rack template: the flat fields already mirror tier 0. The
	// subsystem carries the intra-rack share at an absolute rate so its
	// own Load/Capacity normalization never rescales it.
	rackCfg := cfg
	rackCfg.Tiers = nil
	rackCfg.Pattern = traffic.Uniform
	rackCfg.Load = 0
	rackCfg.InjectionRate = rate * fIntra
	if t0.Window != 0 {
		rackCfg.Window = t0.Window
	}
	if t0.Policy != nil {
		rackCfg.Policy = t0.Policy
	}
	h.rackCfg = rackCfg

	// Tier-1 fabric: racks as boards, carrying the inter-rack share
	// under the board-aware remote pattern (never a same-rack
	// destination, so every packet crosses the fabric).
	fabCfg := cfg
	fabCfg.Tiers = nil
	fabCfg.Boards = cfg.Racks()
	fabCfg.NodesPerBoard = cfg.Boards * cfg.NodesPerBoard
	fabCfg.Pattern = traffic.Remote
	fabCfg.Load = 0
	fabCfg.InjectionRate = rate * (1 - fIntra)
	fabCfg.Window = cfg.Window
	if t1.Window != 0 {
		fabCfg.Window = t1.Window
	}
	if t1.Policy != nil {
		fabCfg.Policy = t1.Policy
	}
	fabCfg.Seed = deriveSeed(cfg.Seed, 1, 0)
	h.fabCfg = fabCfg

	if err := rackCfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: derived tier-0 config: %w", err)
	}
	if err := fabCfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: derived tier-1 config: %w", err)
	}
	return h, nil
}

// RunContext executes the plan on a throw-away Runner; see
// Runner.RunContext, which also carries telemetry attachments.
func (h *Hier) RunContext(ctx context.Context) (*Result, error) {
	return h.run(ctx, new(Runner))
}

// subRun captures one subsystem's Result plus the fabric-level values
// (supply ceiling, integrated energy) its Result does not carry.
type subRun struct {
	res         *Result
	supplyBound float64
	dynamicNJ   float64
	nodes       int
}

// runSub runs one subsystem of a hierarchical run on sub, forwarding
// r's sinks and — under the subsystem's series prefix — its telemetry
// request, and collecting the subsystem's collector into r.tels.
func (r *Runner) runSub(ctx context.Context, sub *Runner, cfg Config, tier, inst int) (subRun, error) {
	sub.sinks = r.sinks
	if r.telCfg != nil {
		tc := *r.telCfg
		tc.prefix = fmt.Sprintf("tier%d/", tier)
		if tier == 0 {
			tc.prefix = fmt.Sprintf("tier%d/rack%d/", tier, inst)
		}
		sub.telCfg = &tc
	}
	res, err := sub.RunContext(ctx, cfg)
	r.tels = append(r.tels, sub.tels...)
	sr := subRun{res: res, nodes: cfg.Boards * cfg.NodesPerBoard}
	if res != nil {
		sr.supplyBound = sub.sys.fab.SupplyBoundMW()
		sr.dynamicNJ = sub.sys.fab.Meter().DynamicEnergyNJ()
	}
	return sr, err
}

// run executes the R rack subsystems and the tier-1 fabric
// sequentially on two sub-Runners of its own, folding their metrics into
// one Result with a per-tier breakdown. Cancellation is checked inside
// every subsystem run at window boundaries; a cancelled run returns the
// aggregate of the completed portion alongside the *CancelledError.
func (h *Hier) run(ctx context.Context, r *Runner) (*Result, error) {
	rack, fab := new(Runner), new(Runner)
	n := float64(h.cfg.Racks() * h.cfg.Boards * h.cfg.NodesPerBoard)
	all, tier0, tier1 := fold{n: n}, fold{n: n}, fold{n: n}
	var cancelled *CancelledError
	for i := 0; i < h.cfg.Racks() && cancelled == nil; i++ {
		cfg := h.rackCfg
		cfg.Seed = deriveSeed(h.cfg.Seed, 0, uint64(i))
		sr, err := r.runSub(ctx, rack, cfg, 0, i)
		if err != nil && !(errors.As(err, &cancelled) && sr.res != nil) {
			return nil, fmt.Errorf("core: tier-0 rack %d: %w", i, err)
		}
		all.add(sr)
		tier0.add(sr)
	}
	tiers := []TierResult{tier0.tier(0, h.rackCfg)}
	if cancelled == nil {
		sr, err := r.runSub(ctx, fab, h.fabCfg, 1, 0)
		if err != nil && !(errors.As(err, &cancelled) && sr.res != nil) {
			return nil, fmt.Errorf("core: tier-1 fabric: %w", err)
		}
		all.add(sr)
		tier1.add(sr)
		tiers = append(tiers, tier1.tier(1, h.fabCfg))
	}
	res := all.result()
	res.Mode = h.cfg.Mode
	res.Pattern = h.cfg.Pattern
	res.Policy = h.cfg.PolicyName()
	res.Load = h.cfg.Load
	res.Rate = h.cfg.Rate()
	res.Capacity = h.cfg.Capacity()
	res.Tiers = tiers
	if cancelled != nil {
		return res, cancelled
	}
	return res, nil
}

// fold accumulates subsystem results into one Result. Additive
// quantities (power, counters, packet counts) sum; per-node rates are
// carried shares that sum across subsystems; latency statistics are
// sample-weighted. The whole run and each tier fold the same way, over
// different subsets of the subsystems.
type fold struct {
	n       float64 // global node count
	systems int
	r       Result

	latW, latSum, netSum, p50, p95, p99 float64
	bits, energyNJ                      float64
	labInj, labDel                      float64
	fairW, fairSum                      float64
	supplyBound                         float64
}

func (f *fold) add(sr subRun) {
	sub, r := sr.res, &f.r
	f.systems++
	// Per-node rates scale by the subsystem's share of the N global
	// nodes; every global node appears once per tier, so tier shares
	// add up to the run totals.
	nodes := float64(sr.nodes)
	r.Throughput += sub.Throughput * nodes / f.n
	r.OfferedLoad += sub.OfferedLoad * nodes / f.n

	w := float64(sub.Samples)
	f.latW += w
	f.latSum += float64(sub.AvgLatency * w)
	f.netSum += float64(sub.AvgNetLatency * w)
	f.p50 += float64(sub.P50Latency * w)
	f.p95 += float64(sub.P95Latency * w)
	f.p99 += float64(sub.P99Latency * w)
	if sub.MaxLatency > r.MaxLatency {
		r.MaxLatency = sub.MaxLatency
	}
	r.Samples += sub.Samples

	r.PowerDynamicMW += sub.PowerDynamicMW
	r.PowerSupplyMW += sub.PowerSupplyMW
	f.supplyBound += sr.supplyBound
	f.energyNJ += sr.dynamicNJ
	if sub.EnergyPerBitPJ > 0 {
		f.bits += sr.dynamicNJ * 1e3 / sub.EnergyPerBitPJ
	}

	r.Ctrl = r.Ctrl.Add(sub.Ctrl)
	r.Wakes += sub.Wakes
	if sub.Cycles > r.Cycles {
		r.Cycles = sub.Cycles
	}
	r.Truncated = r.Truncated || sub.Truncated
	r.Injected += sub.Injected
	r.Delivered += sub.Delivered
	if sub.MaxSourceQueue > r.MaxSourceQueue {
		r.MaxSourceQueue = sub.MaxSourceQueue
	}
	f.fairW += float64(sub.Delivered)
	f.fairSum += float64(sub.Fairness * float64(sub.Delivered))

	if sub.DeliveredFraction > 0 {
		f.labInj += float64(sub.Samples) / sub.DeliveredFraction
		f.labDel += float64(sub.Samples)
	}
}

// result finishes the weighted means and returns the folded Result.
func (f *fold) result() *Result {
	r := f.r
	if f.latW > 0 {
		r.AvgLatency = f.latSum / f.latW
		r.AvgNetLatency = f.netSum / f.latW
		r.P50Latency = f.p50 / f.latW
		r.P95Latency = f.p95 / f.latW
		r.P99Latency = f.p99 / f.latW
	}
	if f.bits > 0 {
		r.EnergyPerBitPJ = f.energyNJ * 1e3 / f.bits
	}
	r.DeliveredFraction = 1
	if f.labInj > 0 {
		r.DeliveredFraction = f.labDel / f.labInj
	}
	if f.fairW > 0 {
		r.Fairness = f.fairSum / f.fairW
	}
	return &r
}

// tier renders the fold as one tier's slice of the breakdown; cfg is
// the tier's subsystem configuration.
func (f *fold) tier(tier int, cfg Config) TierResult {
	r := f.result()
	return TierResult{
		Tier:          tier,
		Systems:       f.systems,
		Boards:        cfg.Boards,
		NodesPerBoard: cfg.NodesPerBoard,
		Window:        cfg.Window,
		Policy:        cfg.PolicyName(),

		Throughput:  r.Throughput,
		OfferedLoad: r.OfferedLoad,
		AvgLatency:  r.AvgLatency,
		P95Latency:  r.P95Latency,
		Samples:     r.Samples,

		PowerDynamicMW: r.PowerDynamicMW,
		PowerSupplyMW:  r.PowerSupplyMW,
		SupplyBoundMW:  f.supplyBound,
		EnergyPerBitPJ: r.EnergyPerBitPJ,

		Ctrl:  r.Ctrl,
		Wakes: r.Wakes,

		Injected:          r.Injected,
		Delivered:         r.Delivered,
		DeliveredFraction: r.DeliveredFraction,
		Truncated:         r.Truncated,
	}
}
