// Package analytic derives closed-form performance bounds for E-RAPID
// configurations — zero-load latencies and per-pattern saturation
// throughputs — used to validate the simulator (simulated values must
// approach, and never exceed, the bounds) and to sanity-check sweeps.
package analytic

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// pipelineCycles is the head-flit router pipeline: RC + VA + SA, one
// cycle each (Table 1), with ST folded into channel serialization.
const pipelineCycles = 3

// ZeroLoadInterBoardLatency returns the approximate minimum end-to-end
// latency in cycles for an inter-board packet under the configuration:
// NIC serialization, IBI traversal, transmitter reassembly, optical
// serialization at the top bit rate, fiber flight, receive-side
// re-injection and ejection. It is a lower bound up to a few cycles of
// arbitration slack.
func ZeroLoadInterBoardLatency(cfg core.Config) float64 {
	flits := float64(cfg.FlitsPerPacket())
	fc := float64(cfg.FlitCyclesElec)
	elecPacket := flits * fc // tail leaves a channel this long after the head enters it

	lad := power.PaperLadder()
	ser := float64(lad.SerializationCycles(cfg.PacketBytes*8, lad.Top(), cfg.CycleNS))

	// Source side: NIC serializes the packet onto the injection channel,
	// the IBI pipeline forwards it, and the transmitter reassembles the
	// whole packet before lasing (store-and-forward at the domain
	// crossing): tail at transmitter ≈ elecPacket (NIC) + pipeline +
	// elecPacket (IBI output channel).
	source := elecPacket + pipelineCycles + elecPacket
	// Optical hop.
	optical := ser + float64(cfg.PropCyclesOpt)
	// Destination side: receive NIC re-injects the flit stream, IBI
	// forwards to the ejection port, tail arrives one electrical packet
	// later.
	dest := elecPacket + pipelineCycles + elecPacket
	return source + optical + dest
}

// ZeroLoadIntraBoardLatency returns the approximate minimum latency for
// an intra-board packet (electrical only).
func ZeroLoadIntraBoardLatency(cfg core.Config) float64 {
	flits := float64(cfg.FlitsPerPacket())
	fc := float64(cfg.FlitCyclesElec)
	return flits*fc + pipelineCycles + flits*fc
}

// FlowMatrix counts, for each (source board, destination board) pair,
// how many nodes send to it under a deterministic pattern. Random
// patterns (uniform, hotspot) are estimated by sampling.
func FlowMatrix(cfg core.Config, pattern string) ([][]float64, error) {
	top, err := topology.NewSRS(cfg.Boards, cfg.NodesPerBoard)
	if err != nil {
		return nil, err
	}
	pat, err := traffic.New(pattern, top.TotalNodes())
	if err != nil {
		return nil, err
	}
	b := top.Boards()
	m := make([][]float64, b)
	for i := range m {
		m[i] = make([]float64, b)
	}
	stream := rng.New(12345)
	const samples = 400 // per node, for stochastic patterns
	deterministic := true
	switch pattern {
	case traffic.Uniform, traffic.Hotspot:
		deterministic = false
	}
	for n := 0; n < top.TotalNodes(); n++ {
		if deterministic {
			d := pat.Dest(n, stream)
			if top.Board(d) != top.Board(n) {
				m[top.Board(n)][top.Board(d)]++
			}
			continue
		}
		for k := 0; k < samples; k++ {
			d := pat.Dest(n, stream)
			if top.Board(d) != top.Board(n) {
				m[top.Board(n)][top.Board(d)] += 1.0 / samples
			}
		}
	}
	return m, nil
}

// SaturationBound returns an upper bound on accepted throughput in
// packets/node/cycle for a pattern, given how many channels each flow
// can use (1 for the static network; min(MaxHold, 1+idle) with DBR).
// The bound is the injection rate at which the busiest optical channel
// group reaches full utilization; electrical injection is also bounded.
func SaturationBound(cfg core.Config, pattern string, reconfigured bool) (float64, error) {
	m, err := FlowMatrix(cfg, pattern)
	if err != nil {
		return 0, err
	}
	b := cfg.Boards
	lad := power.PaperLadder()
	ser := float64(lad.SerializationCycles(cfg.PacketBytes*8, lad.Top(), cfg.CycleNS))
	maxHold := cfg.MaxHold
	if maxHold <= 0 {
		maxHold = b - 1
	}

	// Channels available to flow (s,d): its static channel plus, when
	// reconfigured, an equal share of the idle channels into d.
	limit := 1e18
	var intra float64 // fraction of traffic that stays on-board (per node average)
	total := float64(cfg.NodesPerBoard)
	for s := 0; s < b; s++ {
		var remote float64
		for d := 0; d < b; d++ {
			remote += m[s][d]
		}
		intra += (total - remote) / total / float64(b)
	}
	for d := 0; d < b; d++ {
		active := 0
		for s := 0; s < b; s++ {
			if s != d && m[s][d] > 1e-9 {
				active++
			}
		}
		if active == 0 {
			continue
		}
		idle := (b - 1) - active
		for s := 0; s < b; s++ {
			if s == d || m[s][d] <= 1e-9 {
				continue
			}
			channels := 1.0
			if reconfigured {
				share := 1 + idle/active
				if share > maxHold {
					share = maxHold
				}
				channels = float64(share)
			}
			// m[s][d] nodes load these channels at rate r each:
			// r ≤ channels / (ser × m[s][d]).
			bound := channels / (ser * m[s][d])
			if bound < limit {
				limit = bound
			}
		}
	}
	// Electrical injection bound per node.
	elec := 1 / (float64(cfg.FlitsPerPacket()) * float64(cfg.FlitCyclesElec))
	if elec < limit {
		limit = elec
	}
	if limit >= 1e18 {
		return 0, fmt.Errorf("analytic: pattern %q has no inter-board flows", pattern)
	}
	return limit, nil
}
