// Package ctrl implements the paper's Lock-Step (LS) reconfiguration
// protocol (Sec. 3): per-board Reconfiguration Controllers (RCs) joined
// by a unidirectional electrical control ring, per-transmitter Link
// Controllers (LCs) with Link_util/Buffer_util counters, the Dynamic
// Power Management policy (Sec. 3.1) and the Dynamic Bandwidth
// Re-allocation policy (Sec. 3.2).
//
// Every reconfiguration window R_w the RCs wake in lock-step. Odd
// windows run the power-awareness cycle, purely local to each board:
// a Power_Request traverses the LC chain, each LC scales its lasers'
// bit rates against the L_min/L_max/B_max thresholds, and idle lasers
// shut down. Even windows run the five-stage bandwidth cycle:
//
//	Link Request   — RC gathers outgoing link statistics from its LCs
//	Board Request  — each RC circulates a request for its incoming link
//	                 statistics around the ring; every RC it passes fills
//	                 in the entries for channels it currently drives
//	Reconfigure    — each RC classifies its incoming channels as
//	                 under-/normal/over-utilized and re-allocates
//	                 under-utilized wavelengths to over-utilized sources
//	Board Response — the new assignments circulate back around the ring
//	Link Response  — each RC programs its LCs: lasers turn on/off and
//	                 the receivers re-lock onto their new sources
//
// Each RC is an explicit state machine driven by sim.Engine callbacks
// (rc.go): every window wake, LC hop, stage delay, ring arrival and
// receive deadline is one event, so the protocol really exchanges
// messages with ring-hop latencies rather than being approximated by a
// global barrier, and its order is the engine's (time, seq) order alone
// — no goroutines. A ring arrival and its consumption are deliberately
// two events (see RC.receive).
package ctrl

import (
	"fmt"

	"repro/internal/optical"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Thresholds are the utilization set-points of Sec. 3.1/3.2. The
// canonical definition lives in the policy package (policies consume
// them without importing ctrl); the alias keeps the established ctrl
// API intact.
type Thresholds = policy.Thresholds

// PaperPB returns the thresholds the paper uses for the power-aware,
// bandwidth-reconfigured network (L_max 0.9, L_min 0.7, B_max 0.3).
func PaperPB() Thresholds { return Thresholds{LMin: 0.7, LMax: 0.9, BMin: 0.0, BMax: 0.3} }

// PaperPNB returns the thresholds for the power-aware non-bandwidth-
// reconfigured network (L_max 0.7, B_max 0.0: scale up conservatively
// before saturation, since no extra bandwidth can be recruited). L_min
// is not specified in the paper; 0.5 keeps hysteresis below L_max.
func PaperPNB() Thresholds { return Thresholds{LMin: 0.5, LMax: 0.7, BMin: 0.0, BMax: 0.0} }

// Control-plane latencies, in cycles.
const (
	// ringHopCycles is the RC→RC control-ring hop latency.
	ringHopCycles uint64 = 4
	// lcHopCycles is the RC→LC chain per-hop latency.
	lcHopCycles uint64 = 2
	// computeCycles is the Reconfigure-stage computation time.
	computeCycles uint64 = 4
)

// Config parameterizes the controller system.
type Config struct {
	// Window is R_w, the reconfiguration window (2000 cycles in Sec. 3.1).
	Window uint64
	// PowerAware enables the DPM cycle (odd windows).
	PowerAware bool
	// BandwidthReconfig enables the DBR cycle (even windows).
	BandwidthReconfig bool
	Thresholds        Thresholds
	// MaxHold caps how many incoming channels of one destination a single
	// source board may hold (0 = unlimited, i.e. B-1). The paper's
	// complement-traffic results plateau near 4× the static bandwidth,
	// which corresponds to MaxHold = 4; see the ablation bench.
	MaxHold int
	// Policy selects the registered reconfiguration policy the RCs
	// consult each window (nil = the paper baseline, bit-identical to
	// the pre-interface engine).
	Policy *policy.Spec
	// NewPolicy, when non-nil, overrides Policy with a caller-supplied
	// per-board constructor (core uses it to inject profiled
	// oracle-static instances). The returned policies must honor the
	// policy package's determinism contract.
	NewPolicy func(board int) policy.Policy
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Window < 1:
		return fmt.Errorf("ctrl: window must be >= 1, got %d", c.Window)
	case c.Thresholds.LMin > c.Thresholds.LMax:
		return fmt.Errorf("ctrl: LMin %v > LMax %v", c.Thresholds.LMin, c.Thresholds.LMax)
	case c.Thresholds.BMin > c.Thresholds.BMax:
		return fmt.Errorf("ctrl: BMin %v > BMax %v", c.Thresholds.BMin, c.Thresholds.BMax)
	}
	if c.NewPolicy == nil {
		if err := c.Policy.Validate(); err != nil {
			return fmt.Errorf("ctrl: %w", err)
		}
	}
	return nil
}

// DefaultConfig returns the paper's operating point for a given mode.
func DefaultConfig(powerAware, bandwidthReconfig bool) Config {
	th := PaperPB()
	if powerAware && !bandwidthReconfig {
		th = PaperPNB()
	}
	return Config{
		Window:            2000,
		PowerAware:        powerAware,
		BandwidthReconfig: bandwidthReconfig,
		Thresholds:        th,
		MaxHold:           4,
	}
}

// Counters aggregates protocol activity.
type Counters struct {
	Windows        uint64 // windows processed per RC, summed
	PowerCycles    uint64
	BandwidthCyles uint64
	MessagesSent   uint64 // RC→RC control packets (per hop)
	Reassignments  uint64 // channels moved
	Reclaims       uint64 // channels returned to their static owner
	LevelUps       uint64
	LevelDowns     uint64
	Shutdowns      uint64
	FailedMoves    uint64 // re-allocations skipped (holder became busy)
	// PowerCycleBusy / BandwidthCycleBusy accumulate the cycles RCs spent
	// executing each reconfiguration cycle (the protocol's control
	// overhead; the paper requires it to be small relative to R_w).
	PowerCycleBusy     uint64
	BandwidthCycleBusy uint64
	// Fault-tolerance counters (all zero without fault injection).
	Timeouts        uint64 // bounded ring receives that expired
	Retries         uint64 // messages re-sent after a timeout
	StaleMsgs       uint64 // messages discarded as belonging to an older window
	AbandonedCycles uint64 // DBR cycles given up after exhausting retries
	FaultRepairs    uint64 // channels moved off a permanently failed laser
}

// Add returns the field-wise sum of two counter sets: the aggregate
// control activity of independently controlled subsystems (the tiers
// and rack instances of a hierarchical run).
func (c Counters) Add(o Counters) Counters {
	c.Windows += o.Windows
	c.PowerCycles += o.PowerCycles
	c.BandwidthCyles += o.BandwidthCyles
	c.MessagesSent += o.MessagesSent
	c.Reassignments += o.Reassignments
	c.Reclaims += o.Reclaims
	c.LevelUps += o.LevelUps
	c.LevelDowns += o.LevelDowns
	c.Shutdowns += o.Shutdowns
	c.FailedMoves += o.FailedMoves
	c.PowerCycleBusy += o.PowerCycleBusy
	c.BandwidthCycleBusy += o.BandwidthCycleBusy
	c.Timeouts += o.Timeouts
	c.Retries += o.Retries
	c.StaleMsgs += o.StaleMsgs
	c.AbandonedCycles += o.AbandonedCycles
	c.FaultRepairs += o.FaultRepairs
	return c
}

// RingFault intercepts RC→RC control-ring messages (fault injection).
// Implementations must be deterministic functions of their own state and
// the arguments.
type RingFault interface {
	// FilterRingMsg is consulted once per ring hop. drop suppresses the
	// message entirely; otherwise extraDelay cycles are added to the hop
	// latency.
	FilterRingMsg(from, to int, now uint64) (drop bool, extraDelay uint64)
}

// System owns the per-board controllers.
type System struct {
	top *topology.Topology
	fab *optical.Fabric
	eng *sim.Engine
	cfg Config

	rcs []*RC
	ctr Counters

	// sink, when non-nil, receives every stage entry as a telemetry
	// event (see SetSink).
	sink telemetry.Sink
	// ringFault, when non-nil, filters every RC→RC message (fault
	// injection), and ring receives are bounded (see RC.receive). The
	// healthy path never consults it beyond a nil check, and its
	// receives block until the message arrives, which is exact when
	// messages cannot be lost.
	ringFault RingFault

	// msgFree recycles consumed boardMsg records (and their entry
	// slices), flightFree the in-transit records of ring hops, so the
	// per-window ring exchange allocates nothing in the steady state. RC
	// callbacks run one at a time on the engine's thread, so the free
	// lists need no locking.
	msgFree    []*boardMsg
	flightFree []*flight
}

// getMsg returns a recycled control message or a fresh one. Callers
// must set every field they rely on; recycled entries keep capacity
// only.
func (s *System) getMsg() *boardMsg {
	if n := len(s.msgFree); n > 0 {
		m := s.msgFree[n-1]
		s.msgFree[n-1] = nil
		s.msgFree = s.msgFree[:n-1]
		return m
	}
	return &boardMsg{}
}

// putMsg recycles a fully consumed control message. The assign slice is
// deliberately dropped, never reused: the origin's Link Response stage
// still reads it.
func (s *System) putMsg(m *boardMsg) {
	m.assign = nil
	s.msgFree = append(s.msgFree, m)
}

// SetRingFault attaches a control-ring fault filter, which also bounds
// every ring receive (nil detaches).
func (s *System) SetRingFault(rf RingFault) { s.ringFault = rf }

// NewSystem builds the controller system and schedules every RC's first
// wake at Window, in ascending board order: a constructed system is
// running, driven by whoever advances eng.
func NewSystem(top *topology.Topology, fab *optical.Fabric, eng *sim.Engine, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ladder := fab.Config().Ladder
	s := &System{top: top, fab: fab, eng: eng, cfg: cfg}
	for b := 0; b < top.Boards(); b++ {
		rc := newRC(s, b)
		if cfg.NewPolicy != nil {
			rc.pol = cfg.NewPolicy(b)
		} else {
			pol, err := policy.New(cfg.Policy, policy.Params{
				Board:      b,
				Boards:     top.Boards(),
				Thresholds: cfg.Thresholds,
				Ladder:     ladder,
				MaxHold:    cfg.MaxHold,
				Window:     cfg.Window,
			})
			if err != nil {
				return nil, err
			}
			rc.pol = pol
		}
		s.rcs = append(s.rcs, rc)
	}
	if cfg.PowerAware {
		// An Off laser wakes to the ladder bottom.
		fab.SetAutoWake(ladder.Bottom())
	}
	for _, rc := range s.rcs {
		rc.nextWindow()
	}
	return s, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Counters returns a snapshot of the protocol counters.
func (s *System) Counters() Counters { return s.ctr }

// SetSink attaches a telemetry sink (nil detaches): every LS stage
// entry is emitted as a telemetry.StageEnter event with the RC's board
// and the stage name as label. core.System wires this automatically
// when a sink is attached to it.
func (s *System) SetSink(sink telemetry.Sink) { s.sink = sink }

func (s *System) stage(board int, name string) {
	if s.sink != nil {
		s.sink.Emit(telemetry.Event{
			Cycle: s.eng.Now(), Kind: telemetry.StageEnter,
			Board: board, Wavelength: -1, Dest: -1, Label: name,
		})
	}
}

// Start does nothing: NewSystem already scheduled the RCs. It survives
// only because the frozen benchmark/ harness calls it (ROADMAP item 1c
// moves the harness off it; then it goes).
func (s *System) Start() {}
