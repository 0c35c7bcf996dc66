package core

import (
	"fmt"
	"strings"

	"repro/internal/ctrl"
	"repro/internal/fault"
)

// Result summarizes one simulation run.
type Result struct {
	Mode    Mode
	Pattern string
	// Policy is the canonical reconfiguration-policy name when the run
	// used one other than the paper baseline ("" = paper, keeping paper
	// results byte-identical to pre-policy builds).
	Policy string `json:",omitempty"`
	// Load is the configured load as a fraction of uniform capacity.
	Load float64
	// Rate is the absolute offered injection rate (packets/node/cycle).
	Rate float64
	// Capacity is the analytic uniform-traffic N_c used for normalization.
	Capacity float64

	// Throughput is accepted throughput in packets/node/cycle over the
	// measurement interval.
	Throughput float64
	// OfferedLoad is the measured injection rate over the same interval.
	OfferedLoad float64

	// Latencies are in router cycles, over labeled packets.
	AvgLatency    float64
	P50Latency    float64
	P95Latency    float64
	P99Latency    float64
	MaxLatency    float64
	AvgNetLatency float64
	Samples       int

	// PowerDynamicMW is the utilization-weighted optical link power (the
	// paper's headline power metric); PowerSupplyMW integrates every lit
	// laser at its level whether transmitting or not.
	PowerDynamicMW float64
	PowerSupplyMW  float64
	// EnergyPerBitPJ is dynamic energy per delivered payload bit.
	EnergyPerBitPJ float64

	// Protocol activity during the whole run.
	Ctrl ctrl.Counters
	// Wakes counts DLS wake-on-demand events.
	Wakes uint64

	// Cycles is the index of the last simulated cycle: a run of cycles
	// 0..N reports N. Truncated marks runs whose drain phase hit the
	// limit (deeply saturated points).
	Cycles    uint64
	Truncated bool
	Injected  uint64
	Delivered uint64
	// MaxSourceQueue is the largest NIC backlog at the end of the run; a
	// growing backlog marks operation beyond saturation.
	MaxSourceQueue int
	// Fairness is Jain's index over per-node measurement-phase deliveries:
	// 1.0 when every node receives equally, 1/N when one node receives
	// everything. 0 when nothing was delivered.
	Fairness float64

	// Availability metrics (meaningful under fault injection; on healthy
	// runs DeliveredFraction still reports delivered/injected and the rest
	// are zero).
	//
	// DeliveredFraction is the fraction of labeled (measurement-interval)
	// packets that were delivered rather than destroyed by a fault,
	// following the same labeled-packet methodology as the latency
	// metrics: the drain phase runs labeled packets to completion, so on
	// non-truncated runs this is exactly 1 - (labeled fault drops /
	// labeled injected). 1.0 when nothing was labeled.
	DeliveredFraction float64
	// DroppedByFault counts packets destroyed by fault injection.
	DroppedByFault uint64
	// DegradedWindows, per board, counts reconfiguration windows the
	// board spent with at least one impaired laser. Nil without faults.
	DegradedWindows []uint64
	// Faults summarizes the injector's actions (zero without faults).
	Faults fault.Counters

	// Tiers carries the per-tier breakdown of a hierarchical run:
	// entry 0 aggregates the rack instances, entry 1 the inter-rack
	// fabric. Nil on flat (single-SRS) runs, keeping their serialized
	// Results byte-identical to earlier builds.
	Tiers []TierResult `json:",omitempty"`
}

// NormalizedThroughput returns throughput as a fraction of uniform N_c.
func (r *Result) NormalizedThroughput() float64 {
	if r.Capacity == 0 {
		return 0
	}
	return r.Throughput / r.Capacity
}

// Saturated reports whether the run operated beyond its saturation point
// (accepted throughput visibly below offered load).
func (r *Result) Saturated() bool {
	return r.Throughput < 0.95*r.OfferedLoad
}

// String renders a one-line summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s load=%.2f thr=%.5f pkt/node/cyc lat=%.0f cyc p95=%.0f pwr=%.1f mW",
		r.Mode, r.Pattern, r.Load, r.Throughput, r.AvgLatency, r.P95Latency, r.PowerDynamicMW)
	if r.DegradedWindows != nil {
		fmt.Fprintf(&b, " delivered=%.4f dropped=%d", r.DeliveredFraction, r.DroppedByFault)
	}
	if r.Truncated {
		b.WriteString(" [truncated]")
	}
	return b.String()
}
