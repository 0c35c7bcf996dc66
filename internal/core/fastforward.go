// Idle fast-forward: analytic advancement of provably idle stretches.
//
// When nothing is in flight anywhere — every injected packet accounted
// for, every NIC/rx/IBI workless, the optical fabric quiescent — and no
// engine event, fault, or clock-driven measurement boundary falls
// before the horizon, the only per-cycle work left is (a) each node's
// injector draw and (b) the fabric's idle-power sample. Both are
// replayed exactly (the RNG streams consume the same positions, the
// meter the same float additions, in the same order), so a
// fast-forwarded run is bit-identical to a ticked one; everything else
// the per-cycle machinery does is provably a no-op and is skipped.
// That turns the idle floor from "scan all components and tick the
// clock" into "draw and compare" — what the idle-64 workload measures.
//
// Only the serial engine fast-forwards: parallel epochs pipeline
// instead, and the two stepping modes stay bit-identical because both
// reproduce the serial reference stream.
package core

import "repro/internal/traffic"

// ffEligible reports whether the system as configured may ever
// fast-forward: telemetry windows observe every cycle and the fault
// injector ticks every cycle, so both need real cycles.
func (s *System) ffEligible() bool {
	return s.faults == nil && s.telemetry == nil
}

// fastForward advances the system analytically through up to n cycles
// starting at s.nextCycle, returning how many cycles it consumed (0
// when the system is not provably idle). Consumed cycles are fully
// accounted: injector streams stepped, idle power metered, cycle
// counters advanced. The cycle at which an injector first fires is NOT
// consumed — the streams are rewound so the caller's next regular step
// replays it through the full machinery.
func (s *System) fastForward(n uint64) uint64 {
	now := s.nextCycle
	if now == 0 {
		// Cycle 0 is always stepped: it emits the initial phase event,
		// and no engine event sits at t = 0 to force it.
		return 0
	}
	horizon := now + n
	// Clock-driven measurement boundaries and engine events (LS control
	// wakeups, scheduled reconfiguration work) bound the idle stretch.
	b, ok := s.meas.NextBoundary()
	if !ok || b <= now {
		return 0
	}
	if b < horizon {
		horizon = b
	}
	if t, ok := s.eng.NextEventTime(); ok {
		if uint64(t) <= now {
			return 0
		}
		if uint64(t) < horizon {
			horizon = uint64(t)
		}
	}
	if horizon <= now {
		return 0
	}
	// Nothing may be in flight: packet conservation plus per-component
	// worklessness (queued credits count as work — their arrival cycle
	// changes buffer state the future depends on).
	if !s.Quiescent() || !s.fab.Quiescent(now) {
		return 0
	}
	for _, bd := range s.boards {
		if !bd.workless() {
			return 0
		}
	}

	// Batch the draws per node rather than per cycle: each stream's
	// state stays register-resident across its whole stretch. Streams
	// are independent, so node-major order consumes exactly the
	// positions cycle-major order would. Each node records its first
	// firing cycle; cycles before the global minimum are idle for
	// everyone. Nodes drawn past that minimum have over-consumed, so on
	// any fire all streams rewind to their snapshots and re-consume just
	// the idle prefix.
	k := horizon - now
	if s.ffStates == nil {
		s.ffStates = make([]traffic.State, len(s.injectors))
	}
	minT := k
	for ni, src := range s.injectors {
		s.ffStates[ni] = src.Save()
		if inj, ok := src.(*traffic.Injector); ok {
			for c := uint64(0); c < minT; c++ {
				if _, fired := inj.Step(); fired {
					minT = c
					break
				}
			}
		} else {
			for c := uint64(0); c < minT; c++ {
				if _, fired := src.Step(); fired {
					minT = c
					break
				}
			}
		}
	}
	if minT < k {
		for ni, src := range s.injectors {
			src.Restore(s.ffStates[ni])
			for c := uint64(0); c < minT; c++ {
				src.Step()
			}
		}
	}
	if minT == 0 {
		return 0
	}
	s.fab.FastForwardIdle(minT)
	s.cycle = now + minT - 1
	s.nextCycle = now + minT
	return minT
}
