// Package policy turns the paper's fixed history-based Lock-Step
// reconfiguration rules into a research surface: a Policy observes one
// board's per-window link/buffer/queue statistics and decides the DPM
// level moves and DBR wavelength grants that the LS stages in
// internal/ctrl then apply. The paper's rules live on as the "paper"
// policy (bit-identical to the pre-interface engine); competing
// policies — an aggressive energy-proportional shutdown policy à la
// "Think Green — Turn Off The Lights" (arXiv:2112.02083), a predictive
// EWMA trend follower, and a static oracle planned from a profiling
// pre-pass — register themselves alongside it and are compared on
// power × latency × availability by the `erapid compare` harness.
//
// # Determinism contract
//
// Policies are called from the RCs' engine callbacks (no RC owns a
// goroutine), in the head of a cycle before any component ticks. A
// policy must be a pure function of its constructor parameters, its own
// accumulated state, and the observations passed to it: no wall-clock
// time, no map iteration, no randomness that is not derived from
// Params.Seed.
// Any violation breaks the engine's same-seed ⇒ same-bytes invariant,
// which internal/core's cell matrix checks for every registered policy.
//
// # Safety contract
//
// The controller, not the policy, owns the hard invariants: a level
// move to Off is applied only when the laser is idle (no queued
// packets, not mid-transmission), targets outside the ladder are
// ignored, and bandwidth grants are validated against laser health and
// the MaxHold cap before they circulate. A policy expresses
// preferences; it cannot strand packets or violate conservation.
package policy

import (
	"repro/internal/power"
)

// Thresholds are the utilization set-points of the paper's Sec. 3.1 and
// 3.2 (this is the canonical definition; ctrl.Thresholds aliases it).
type Thresholds struct {
	// LMin/LMax bound link utilization for bit-rate scaling.
	LMin, LMax float64
	// BMin/BMax bound buffer utilization: below BMin an incoming channel
	// is re-allocatable, above BMax a flow is congested (and, jointly with
	// LMax, a laser may scale up).
	BMin, BMax float64
}

// Params configures a policy instance for one board. Every RC owns its
// own instance, so policies may keep per-board state without locking.
type Params struct {
	// Board is the board this instance decides for; Boards the system
	// width (wavelengths run 1..Boards-1).
	Board, Boards int
	// Thresholds are the configured utilization set-points.
	Thresholds Thresholds
	// Ladder is the DPM operating-point ladder (level 0 = Off).
	Ladder *power.Ladder
	// MaxHold caps how many incoming channels of one destination a single
	// source board may hold (<= 0 means unlimited, i.e. Boards-1).
	MaxHold int
	// Window is R_w in cycles.
	Window uint64
	// Seed is the run seed, for policies that need derived randomness.
	Seed uint64
	// Spec carries the user-supplied tuning knobs (zero values select
	// each policy's documented defaults).
	Spec Spec
}

// maxHold returns the effective per-source channel cap.
func (p Params) maxHold() int {
	if p.MaxHold <= 0 {
		return p.Boards - 1
	}
	return p.MaxHold
}

// LinkObs is one outgoing laser's observation at a DPM decision point:
// the previous window's statistics plus the live state at the moment
// the Power_Request reaches its Link Controller.
type LinkObs struct {
	// Wavelength / Dest identify the laser (wavelength w toward board d).
	Wavelength, Dest int
	// Level is the current ladder level (0 = Off).
	Level int
	// LinkUtil / BufUtil / QueueLen / Dropped are the previous window's
	// statistics, as snapshotted by the RC at the window boundary.
	LinkUtil float64
	BufUtil  float64
	QueueLen int
	Dropped  uint64
	// LiveQueue / Busy are the laser's state now (decision time), which
	// trails the snapshot by the LC-chain hop latency.
	LiveQueue int
	Busy      bool
}

// ChanObs describes one of the deciding board's incoming channels
// during the DBR Reconfigure stage, as assembled by the Board Request
// circulation. Entries are indexed by wavelength (1..Boards-1).
type ChanObs struct {
	// Holder is the source board currently driving the channel.
	Holder int
	// LinkUtil / BufUtil / QueueLen are the holder's laser statistics for
	// this channel over the previous window.
	LinkUtil float64
	BufUtil  float64
	QueueLen int
	// Dead marks the holder's laser permanently failed: the channel is
	// dark and must be repaired onto a surviving laser.
	Dead bool
	// OwnerDemand / OwnerQueue / OwnerDrops are the static owner's demand
	// signals toward this board (nonzero when the owner is starving for a
	// channel it lent out, or dropping on a dead static laser).
	OwnerDemand float64
	OwnerQueue  int
	OwnerDrops  uint64
}

// BandwidthCtx gives a Bandwidth decision bounded access to system
// state that is not part of the window snapshot. The callbacks are
// deterministic reads of fabric/topology state.
type BandwidthCtx struct {
	// Window is the RC's window counter (for rotation/fairness state).
	Window uint64
	// StaticOwner returns the static owner of the deciding board's
	// incoming channel on wavelength w.
	StaticOwner func(w int) int
	// LaserHealthy reports whether source board s has a populated,
	// surviving laser for the deciding board's channel on wavelength w.
	LaserHealthy func(s, w int) bool
	// Repairs is an out-parameter: the policy increments it once per dark
	// channel it moved off a permanently failed laser (the controller
	// accumulates it into ctrl.Counters.FaultRepairs).
	Repairs int
}

// Policy decides one board's reconfiguration moves. Implementations
// must satisfy the package-level determinism contract.
type Policy interface {
	// Name returns the policy's registered name.
	Name() string

	// Power is consulted once per operating laser per DPM (odd) window
	// and returns the preferred ladder level: obs.Level to hold, 0 to
	// shut down, any operating level to scale. The controller applies the
	// move only when it is safe (see the package safety contract); for an
	// Off laser (obs.Level == 0) a nonzero return is a policy-driven
	// pre-wake.
	Power(obs LinkObs) int

	// Bandwidth is consulted once per DBR (even) window with the deciding
	// board's incoming-channel observations (indexed by wavelength,
	// entry 0 unused) and the current holder map in assign. It returns
	// the new holder per wavelength, normally by mutating and returning
	// assign. The returned slice escapes to the Board Response
	// circulation, so implementations must not retain it.
	Bandwidth(ctx *BandwidthCtx, obs []ChanObs, assign []int) []int
}
