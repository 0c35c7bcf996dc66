// Package erapid is a cycle-accurate simulator of E-RAPID, the
// power-aware bandwidth-reconfigurable optical interconnect of
//
//	A. K. Kodi and A. Louri, "Power-Aware Bandwidth-Reconfigurable
//	Optical Interconnects for High-Performance Computing (HPC) Systems",
//	IPPS/IPDPS 2007.
//
// The library models the complete system: Spider-style electrical
// virtual-channel routers on each board, the WDM optical super-highway
// with per-destination passive couplers and laser arrays, the three
// bit-rate/voltage operating points of the optical links, and the
// distributed Lock-Step reconfiguration protocol that combines Dynamic
// Power Management (DPM) with Dynamic Bandwidth Re-allocation (DBR).
//
// # Quick start
//
//	cfg := erapid.DefaultConfig(erapid.PB) // power-aware, bandwidth-reconfigured
//	cfg.Pattern = erapid.Complement
//	cfg.Load = 0.7 // fraction of uniform-traffic network capacity
//	res, err := erapid.Run(cfg)
//	if err != nil { ... }
//	fmt.Println(res.Throughput, res.AvgLatency, res.PowerDynamicMW)
//
// Full figure sweeps (throughput / latency / power across loads, modes
// and traffic patterns, run in parallel) are available through
// SweepContext; see the package examples and `erapid sweep`.
//
// # Cancellation
//
// RunContext and SweepContext accept a context whose cancellation is
// checked once per reconfiguration window (R_w): a cancelled run
// returns within one window with the metrics of its completed prefix
// and a *CancelledError. Long-running servers (see cmd/erapid-serve)
// build on this for job cancellation and timeouts.
//
// # Config schema
//
// Config serializes to a versioned canonical JSON schema (see
// SchemaVersion, ParseConfig, Config.CanonicalJSON and Config.Digest);
// Validate reports structured per-field errors (ValidationError).
package erapid

import (
	"context"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// Mode selects one of the four network configurations of the paper's
// design space (Fig. 3).
type Mode = core.Mode

// The four network configurations.
const (
	// NPNB: non-power-aware, non-bandwidth-reconfigured (static RAPID).
	NPNB = core.NPNB
	// PNB: power-aware only (DPM).
	PNB = core.PNB
	// NPB: bandwidth-reconfigured only (DBR).
	NPB = core.NPB
	// PB: the paper's Lock-Step technique (DPM + DBR).
	PB = core.PB
)

// Traffic pattern names accepted by Config.Pattern.
const (
	Uniform    = traffic.Uniform
	Complement = traffic.Complement
	Butterfly  = traffic.Butterfly
	Shuffle    = traffic.Shuffle
	Transpose  = traffic.Transpose
	BitReverse = traffic.BitReverse
	Tornado    = traffic.Tornado
	Neighbor   = traffic.Neighbor
	Hotspot    = traffic.Hotspot
	// Remote sends uniformly to the nodes of other groups (other racks);
	// it is the inter-rack fabric's traffic model in hierarchical runs.
	Remote = traffic.Remote
)

// Config describes one simulation run. Obtain a baseline with
// DefaultConfig and override fields, or decode a JSON document with
// ParseConfig. Config serializes to a versioned canonical schema:
// Validate reports structured per-field errors, CanonicalJSON returns
// the canonical encoding, and Digest content-addresses the simulation
// it describes.
type Config = core.Config

// SchemaVersion is the current version of the canonical Config JSON
// schema ("schema_version" in encoded documents). Decoders accept
// documents without the tag (the pre-versioning form) and reject
// versions they do not know.
const SchemaVersion = core.SchemaVersion

// FieldError locates one invalid Config field (structured validation).
type FieldError = core.FieldError

// ValidationError aggregates every invalid field of a Config; it is
// the error type of Config.Validate and ParseConfig.
type ValidationError = core.ValidationError

// CancelledError reports a run stopped early by its context, alongside
// the partial Result of the completed windows.
type CancelledError = core.CancelledError

// ParseConfig decodes a JSON config document as an overlay over the
// paper's P-B defaults and validates it.
func ParseConfig(data []byte) (Config, error) { return core.ParseConfig(data) }

// TierSpec describes one level of a hierarchical topology in
// Config.Tiers: entry 0 is the intra-rack SRS (Boards × NodesPerBoard),
// entry 1 the inter-rack WDM fabric (Boards counts racks). A flat
// Config leaves Tiers nil, and a one-entry array is read as the flat
// form. Each tier's wavelength count is Boards−1, fixed by the SRS RWA.
type TierSpec = core.TierSpec

// TierResult is one level of Result.Tiers, the per-tier breakdown of
// a hierarchical run (power, latency, protocol activity per tier).
type TierResult = core.TierResult

// Result carries the metrics of one run.
type Result = core.Result

// System is an assembled network for custom cycle-by-cycle drivers.
type System = core.System

// Runner executes runs back-to-back — flat configs on one System that
// System.Reset rebuilds for each run, multi-tier configs on the
// hierarchical engine — and carries a run's telemetry attachments
// (AttachSink, EnableTelemetry).
// The zero value is ready to use; it is not safe for concurrent use —
// give each worker goroutine its own.
type Runner = core.Runner

// Modes returns the four configurations in the paper's order.
func Modes() []Mode { return core.Modes() }

// ParseMode parses a mode label such as "P-B".
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

// DefaultConfig returns the paper's 64-node operating point (8 boards ×
// 8 nodes, Table 1 parameters, R_w = 2000) for the given mode.
func DefaultConfig(mode Mode) Config { return core.DefaultConfig(mode) }

// Run simulates one configuration through warm-up, measurement and
// drain, returning the collected metrics. It is RunContext without
// cancellation.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// RunContext is Run with cooperative cancellation: the context is
// checked once per reconfiguration window, so a cancelled run returns
// within one R_w window with a partial Result (the completed prefix,
// bit-identical to the uncancelled run's) and a *CancelledError.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return core.RunContext(ctx, cfg)
}

// NewSystem assembles a network without running it, for custom drivers
// (see ExampleSystem_Step); it is ready to Step. A System models one
// SRS tier; multi-tier configs run through Run, RunContext or a Runner.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// PatternNames lists every supported traffic pattern.
func PatternNames() []string { return traffic.Names() }

// PaperPatterns lists the four patterns evaluated in the paper.
func PaperPatterns() []string { return traffic.PaperNames() }

// SweepRequest describes a batch of runs over patterns × modes × loads.
type SweepRequest = sweep.Request

// SweepSeries is one curve of a figure.
type SweepSeries = sweep.Series

// SweepPoint is one (load, result) pair.
type SweepPoint = sweep.Point

// SweepContext runs the batch in parallel and returns one series per
// (pattern, mode) pair plus the joined errors of every failed point
// (nil when all points succeeded). Cancelling the context stops
// dispatching new points and cancels in-flight runs at their next
// window boundary.
func SweepContext(ctx context.Context, req SweepRequest) ([]SweepSeries, error) {
	return sweep.RunContext(ctx, req)
}

// PaperLoads returns the paper's load axis: 0.1 … 0.9 of capacity.
func PaperLoads() []float64 { return sweep.PaperLoads() }

// TelemetryConfig parameterizes the unified telemetry layer (see
// System.EnableTelemetry): per-window metric series, the structured
// event stream and its exporters.
type TelemetryConfig = core.TelemetryConfig

// Telemetry is the per-run observability state: the metrics registry
// and the in-memory event recorder.
type Telemetry = core.Telemetry

// FaultSpec is a deterministic fault-injection scenario: scheduled
// laser kills/degrades, DPM actuator sticks, control-ring outages, and
// background fault rates. Assign one to Config.Faults.
type FaultSpec = fault.Spec

// FaultEvent is one scheduled fault in a FaultSpec.
type FaultEvent = fault.Event

// FaultCounters summarizes everything the injector did during a run
// (Result.Faults).
type FaultCounters = fault.Counters

// Scheduled fault kinds for FaultEvent.Kind.
const (
	FaultLaserKill    = fault.KindLaserKill
	FaultLaserDegrade = fault.KindLaserDegrade
	FaultLevelStick   = fault.KindLevelStick
	FaultCtrlOutage   = fault.KindCtrlOutage
)

// LoadFaultSpec reads and validates a JSON fault spec file.
func LoadFaultSpec(path string) (*FaultSpec, error) { return fault.LoadSpec(path) }

// ParseFaultSpec decodes and validates a JSON fault spec.
func ParseFaultSpec(data []byte) (*FaultSpec, error) { return fault.ParseSpec(data) }
