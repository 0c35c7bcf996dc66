package core

import (
	"fmt"
	"math"

	"repro/internal/ctrl"
	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TierSpec describes one level of a hierarchical system in config
// schema v2. Tier 0 is the rack building block (an SRS of Boards ×
// NodesPerBoard); tier 1 is the inter-rack fabric, where Boards counts
// racks and NodesPerBoard is derived (0) or the full rack population.
// Each tier's usable wavelength count is fixed by the SRS RWA at
// Boards−1; documents may still spell it as "Wavelengths" (see
// UnmarshalJSON).
type TierSpec struct {
	// Boards is the element count joined by this tier's SRS: E-RAPID
	// boards at tier 0, whole racks at tier 1.
	Boards int
	// NodesPerBoard is the endpoints per element. Required at tier 0;
	// at tier 1 it must be 0 (derived) or tier-0 Boards×NodesPerBoard.
	NodesPerBoard int `json:",omitempty"`
	// Window is this tier's reconfiguration period R_w in cycles; 0
	// inherits Config.Window. Tiers reconfigure independently.
	Window uint64 `json:",omitempty"`
	// Policy is this tier's reconfiguration policy; nil inherits
	// Config.Policy.
	Policy *policy.Spec `json:",omitempty"`
}

// Config describes one simulation run. The zero value is not valid; use
// DefaultConfig and override fields.
type Config struct {
	// Topology: B boards of D nodes in one cluster (C = 1, the only
	// value the paper evaluates). The paper's 64-node system is R(1,8,8).
	Boards        int
	NodesPerBoard int

	// Tiers, when it has two entries, selects a hierarchical system:
	// Tiers[1].Boards racks of Tiers[0].Boards × Tiers[0].NodesPerBoard
	// nodes under an inter-rack WDM fabric (schema v2). Empty means the
	// flat single-SRS system described by the fields above; a single
	// entry is folded onto them (see tiersApplied), so v1 documents and
	// their single-tier v2 equivalents are the same configuration with
	// the same Digest. When both are present, the tier entries win.
	Tiers []TierSpec `json:"tiers,omitempty"`

	// Electrical router parameters (Table 1 / SGI Spider).
	VCs            int    // virtual channels per port
	BufDepth       int    // per-VC input buffer depth in flits (1)
	FlitCyclesElec uint64 // flit serialization on 16-bit 400 MHz channels (4)
	EjectDepth     int    // downstream credit depth at ejection ports

	// Packet format: 64-byte packets of 8-byte flits (8 flits).
	PacketBytes int
	FlitBytes   int

	// Optical parameters.
	CycleNS       float64 // router cycle in ns (2.5 at 400 MHz)
	PropCyclesOpt uint64  // fiber propagation
	RelockCycles  uint64  // CDR/voltage transition penalty (65)
	LaserQueueCap int     // per-laser transmit queue in packets

	// Reconfiguration.
	Mode    Mode
	Window  uint64 // R_w (2000)
	MaxHold int    // max channels one source may hold toward one board (4)
	// PowerLevels is the number of operating points on the DPM ladder.
	// 3 (the default; 0 means the same) selects the paper's published
	// ladder; other values interpolate between 2.5 and 5 Gbps using the
	// component power model (the paper's "more power levels"
	// future-work hypothesis).
	PowerLevels int
	// PortRadius limits each transmitter's laser array to destinations
	// within the given ring distance of its static port (0 = full array);
	// the paper's cost-reduced limited-reconfigurability future work.
	PortRadius int

	// Workload.
	Pattern string
	// Load is the offered load as a fraction of the uniform-traffic
	// network capacity N_c (the paper sweeps 0.1–0.9).
	Load float64
	// InjectionRate, when nonzero, overrides Load with an absolute rate in
	// packets/node/cycle.
	InjectionRate float64
	// BurstLength, when nonzero, switches injection from Bernoulli to a
	// two-state Markov-modulated process with the given mean ON duration
	// in cycles; BurstDuty is the fraction of time spent ON (default 0.5
	// when BurstLength is set). The long-run mean rate is unchanged.
	BurstLength float64
	BurstDuty   float64
	Seed        uint64

	// Measurement methodology.
	WarmupCycles  uint64
	MeasureCycles uint64
	// DrainLimitCycles caps the drain phase; runs that exceed it report
	// Truncated=true (deeply saturated points).
	DrainLimitCycles uint64

	// Faults, when non-nil and non-empty, attaches a deterministic fault
	// injector driven by this spec (see internal/fault). An empty spec
	// behaves bit-identically to nil.
	Faults *fault.Spec `json:"Faults,omitempty"`

	// Policy selects the reconfiguration policy the RCs run (see
	// internal/policy). Nil — or "paper" with default knobs — is the
	// paper baseline, bit-identical to the pre-policy engine and
	// canonicalized away so the content digest of a paper run is
	// unchanged. Any other policy participates in the digest, so the
	// service cache distinguishes runs by policy.
	Policy *policy.Spec `json:"Policy,omitempty"`
}

// DefaultConfig returns the paper's 64-node operating point for a mode.
func DefaultConfig(mode Mode) Config {
	return Config{
		Boards:        8,
		NodesPerBoard: 8,

		VCs:            2,
		BufDepth:       1,
		FlitCyclesElec: 4,
		EjectDepth:     8,

		PacketBytes: 64,
		FlitBytes:   8,

		CycleNS:       2.5,
		PropCyclesOpt: 8,
		RelockCycles:  65,
		LaserQueueCap: 16,

		Mode:        mode,
		Window:      2000,
		MaxHold:     4,
		PowerLevels: 3,

		Pattern: traffic.Uniform,
		Load:    0.5,
		Seed:    1,

		WarmupCycles:     20000,
		MeasureCycles:    10000,
		DrainLimitCycles: 300000,
	}
}

// MultiTier reports whether the configuration describes a hierarchical
// (two-tier) system rather than a flat SRS.
func (c Config) MultiTier() bool { return len(c.Tiers) >= 2 }

// Racks returns the number of tier-0 rack instances: Tiers[1].Boards
// for a hierarchy, 1 for a flat system.
func (c Config) Racks() int {
	if c.MultiTier() {
		return c.Tiers[1].Boards
	}
	return 1
}

// tiersApplied folds the Tiers array onto the flat topology fields:
// a single collapsible entry becomes the flat v1 form (so a v1 document
// and its single-tier v2 equivalent are one configuration, with one
// Digest), and for a real hierarchy the flat fields are synced to tier
// 0 with the derived per-tier values canonicalized away. It is
// idempotent; UnmarshalJSON, Validate and normalized all apply it, so
// hand-constructed configs behave like parsed ones.
func (c Config) tiersApplied() Config {
	if len(c.Tiers) == 0 {
		c.Tiers = nil // "tiers":[] is the flat system too
		return c
	}
	tiers := append([]TierSpec(nil), c.Tiers...)
	c.Tiers = tiers
	for i := range tiers {
		t := &tiers[i]
		if t.Window == c.Window {
			t.Window = 0 // inherited
		}
		t.Policy = t.Policy.Canonical()
	}
	if len(tiers) >= 2 {
		if n := tiers[0].Boards * tiers[0].NodesPerBoard; n > 0 && tiers[1].NodesPerBoard == n {
			tiers[1].NodesPerBoard = 0 // derived rack population
		}
		// The tier array is authoritative; mirror tier 0 onto the flat
		// fields, which describe one rack.
		c.Boards = tiers[0].Boards
		c.NodesPerBoard = tiers[0].NodesPerBoard
		return c
	}
	// One tier is the flat system.
	t := tiers[0]
	c.Boards = t.Boards
	c.NodesPerBoard = t.NodesPerBoard
	if t.Window != 0 {
		c.Window = t.Window
	}
	if t.Policy != nil {
		c.Policy = t.Policy
	}
	c.Tiers = nil
	return c
}

// validateTiers collects per-tier field errors, indexed Tiers[i].Field
// so API clients can locate them. c is already tiersApplied.
func (c Config) validateTiers(add func(field, format string, args ...any)) {
	if len(c.Tiers) == 0 {
		return
	}
	if len(c.Tiers) > 2 {
		add("Tiers", "%d tiers requested; the simulator assembles at most 2 (racks under one inter-rack fabric)",
			len(c.Tiers))
		return
	}
	t0, t1 := c.Tiers[0], c.Tiers[1]
	if t0.Boards < 2 {
		add("Tiers[0].Boards", "need >= 2 boards per rack (SRS), got %d", t0.Boards)
	}
	if t0.NodesPerBoard < 1 {
		add("Tiers[0].NodesPerBoard", "need >= 1 node per board, got %d", t0.NodesPerBoard)
	}
	if t1.Boards < 2 {
		add("Tiers[1].Boards", "need >= 2 racks for an inter-rack fabric, got %d", t1.Boards)
	}
	if rack := t0.Boards * t0.NodesPerBoard; t1.NodesPerBoard != 0 && rack > 0 {
		add("Tiers[1].NodesPerBoard", "nodes per rack is derived from tier 0 (= %d); got %d (use 0)", rack, t1.NodesPerBoard)
	}
	for i := range c.Tiers {
		if t := c.Tiers[i]; t.Window == 0 && c.Window < 1 {
			add(fmt.Sprintf("Tiers[%d].Window", i), "window must be >= 1")
		}
		if err := c.Tiers[i].Policy.Validate(); err != nil {
			add(fmt.Sprintf("Tiers[%d].Policy", i), "%v", err)
		}
	}
	// Restrictions of the decomposed hierarchy engine (see DESIGN.md):
	// the workload must split analytically into intra- and inter-rack
	// shares, which only uniform random traffic does today.
	if c.Pattern != traffic.Uniform {
		add("Pattern", "multi-tier runs support the %q workload only; got %q", traffic.Uniform, c.Pattern)
	}
	if c.Faults != nil && !c.Faults.Empty() {
		add("Faults", "fault injection is not yet supported on multi-tier runs")
	}
	if c.BurstLength != 0 {
		add("BurstLength", "bursty injection is not yet supported on multi-tier runs")
	}
}

// Validate checks every field of the configuration and returns nil or
// a ValidationError listing all invalid fields (not just the first).
func (c Config) Validate() error {
	c = c.tiersApplied()
	var errs ValidationError
	add := func(field, format string, args ...any) {
		errs = append(errs, FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}
	// finite is false for NaN, which passes every < and > test.
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

	top, err := topology.NewSRS(c.Boards, c.NodesPerBoard)
	if err != nil {
		add("Topology", "%v", err)
	}
	c.validateTiers(add)
	if c.VCs < 1 || c.BufDepth < 1 || c.FlitCyclesElec < 1 || c.EjectDepth < 1 {
		add("VCs", "invalid electrical parameters (VCs=%d BufDepth=%d FlitCycles=%d EjectDepth=%d)",
			c.VCs, c.BufDepth, c.FlitCyclesElec, c.EjectDepth)
	}
	if c.PacketBytes < 1 || c.FlitBytes < 1 {
		add("PacketBytes", "invalid packet format (%dB packets, %dB flits)", c.PacketBytes, c.FlitBytes)
	}
	if !finite(c.CycleNS) || c.CycleNS <= 0 || c.LaserQueueCap < 1 {
		add("CycleNS", "invalid optical parameters (CycleNS=%v LaserQueueCap=%d)", c.CycleNS, c.LaserQueueCap)
	}
	if c.Window < 1 {
		add("Window", "window must be >= 1")
	}
	if !finite(c.Load) || c.Load < 0 || (c.Load == 0 && c.InjectionRate == 0) {
		add("Load", "need Load > 0 or explicit InjectionRate")
	}
	if !finite(c.InjectionRate) || c.InjectionRate < 0 {
		add("InjectionRate", "InjectionRate must be finite and >= 0")
	}
	if c.MeasureCycles < 1 {
		add("MeasureCycles", "MeasureCycles must be >= 1")
	}
	if c.MaxHold < 0 {
		add("MaxHold", "MaxHold must be >= 0 (0 = unlimited)")
	}
	if c.PowerLevels == 1 || c.PowerLevels < 0 {
		add("PowerLevels", "PowerLevels must be 0 (default), or >= 2; got %d", c.PowerLevels)
	}
	if !finite(c.BurstLength) || c.BurstLength < 0 || (c.BurstLength > 0 && c.BurstLength < 1) {
		add("BurstLength", "BurstLength must be 0 (Bernoulli) or >= 1 cycle")
	}
	if !(c.BurstDuty >= 0 && c.BurstDuty <= 1) {
		add("BurstDuty", "BurstDuty must be in [0,1]")
	}
	if top != nil {
		if _, err := traffic.NewGrouped(c.Pattern, top.TotalNodes(), top.NodesPerBoard()); err != nil {
			add("Pattern", "%v", err)
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			add("Faults", "%v", err)
		}
	}
	if err := c.Policy.Validate(); err != nil {
		add("Policy", "%v", err)
	}
	// The rate checks read fields validated above. Each subsystem of a
	// hierarchy carries one share of the rate; a flat system has one
	// share, fIntra = 1.
	if len(errs) == 0 {
		field, f := "Load", c.intraFraction()
		if c.InjectionRate > 0 {
			field = "InjectionRate"
		}
		if rate := c.Rate() * math.Max(f, 1-f); rate > 1 {
			add(field, "injection rate %v exceeds 1 packet/node/cycle", rate)
		} else if duty := c.normalized().BurstDuty; c.BurstLength > 0 && rate/duty > 1 {
			add("BurstDuty", "ON-state rate %v (rate %v / duty %v) exceeds 1 packet/node/cycle", rate/duty, rate, duty)
		}
	}
	if len(errs) > 0 {
		return errs
	}
	return nil
}

// PolicyName returns the canonical name of the configured policy when
// it differs from the paper baseline, "" otherwise (Result and the CLI
// surface it only for non-baseline runs).
func (c Config) PolicyName() string {
	if p := c.Policy.Canonical(); p != nil {
		return p.CanonicalName()
	}
	return ""
}

// FlitsPerPacket returns the packet length in flits.
func (c Config) FlitsPerPacket() int {
	return (c.PacketBytes + c.FlitBytes - 1) / c.FlitBytes
}

// Rate returns the absolute injection rate in packets/node/cycle.
func (c Config) Rate() float64 {
	if c.InjectionRate > 0 {
		return c.InjectionRate
	}
	return c.Load * c.Capacity()
}

// Capacity returns the analytic network capacity N_c in
// packets/node/cycle under uniform random traffic at the highest bit
// rate, following the paper's definition (Sec. 4): the binding resource
// is whichever saturates first — the per-board-pair optical channel or
// the electrical injection channel.
func (c Config) Capacity() float64 {
	c = c.tiersApplied()
	lad := power.PaperLadder()
	serHigh := float64(lad.SerializationCycles(c.PacketBytes*8, lad.Top(), c.CycleNS))
	// Electrical bound: a node injects one packet per Flits×FlitCycles.
	elecBound := 1 / (float64(c.FlitsPerPacket()) * float64(c.FlitCyclesElec))
	n := c.Boards * c.NodesPerBoard
	d := float64(c.NodesPerBoard)
	if !c.MultiTier() {
		// Optical bound: per (s,d) board pair, the D nodes of board s send a
		// D/(N-1) fraction of their packets to board d over one channel that
		// serializes a packet in serHigh cycles.
		optBound := float64(n-1) / (d * d * serHigh)
		if optBound < elecBound {
			return optBound
		}
		return elecBound
	}
	// Hierarchy: the offered load splits into the intra-rack share
	// fIntra carried by each rack's SRS and the inter-rack share carried
	// by the tier-1 fabric. Each tier's optical bound divides by the
	// share it carries; whichever resource saturates first binds,
	// exactly as in the flat formula.
	n0 := float64(n)
	N := float64(n0 * float64(c.Racks()))
	fIntra := c.intraFraction()
	// Tier-0 bound for traffic uniform within the rack, scaled by fIntra.
	opt0 := (n0 - 1) / (d * d * serHigh) / fIntra
	// Tier-1: per rack pair, n0 nodes send an n0/(N−n0) share of their
	// inter-rack packets over one channel; dividing by the inter share
	// fInter = (N−n0)/(N−1) leaves (N−1)/(n0²·serHigh).
	opt1 := (N - 1) / (n0 * n0 * serHigh)
	bound := elecBound
	if opt0 < bound {
		bound = opt0
	}
	if opt1 < bound {
		bound = opt1
	}
	return bound
}

// intraFraction is fIntra = (n0−1)/(N−1), the share of a uniform load
// that stays within its source's rack of n0 = Boards×NodesPerBoard
// nodes, where N = Racks()×n0; 1 for a flat system. c is tiersApplied.
func (c Config) intraFraction() float64 {
	n0 := float64(c.Boards * c.NodesPerBoard)
	return (n0 - 1) / (float64(n0*float64(c.Racks())) - 1)
}

// ladder builds the DPM operating-point ladder for the normalized
// configuration.
func (c Config) ladder() (*power.Ladder, error) {
	if c.PowerLevels == 3 {
		return power.PaperLadder(), nil
	}
	return power.InterpolatedLadder(c.PowerLevels)
}

// ctrlConfig derives the controller configuration for the mode.
func (c Config) ctrlConfig() ctrl.Config {
	cc := ctrl.DefaultConfig(c.Mode.PowerAware(), c.Mode.BandwidthReconfig())
	cc.Window = c.Window
	cc.MaxHold = c.MaxHold
	cc.Policy = c.Policy.Canonical()
	return cc
}
