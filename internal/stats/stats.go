// Package stats provides the measurement machinery for the E-RAPID
// evaluation: latency samples with quantiles, windowed utilization
// counters (the Link_util / Buffer_util statistics of the paper), and
// the warm-up / labeled-packet measurement protocol
// of Sec. 4 ("the simulator was warmed up under load without taking
// measurements until steady state was reached; then a sample of injected
// packets were labelled during a measurement interval; the simulation
// was allowed to run until all the labelled packets reached their
// destinations").
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample keeps all observations for exact quantiles. Latency samples in
// our runs are 10³–10⁵ values, so exact storage is cheap and avoids
// sketch error in the reproduced figures.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) by nearest-rank on the
// sorted sample. Empty samples return 0.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	idx := int(math.Ceil(q*float64(len(s.xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s.xs[idx]
}

// Max returns the largest observation (0 when empty).
func (s *Sample) Max() float64 { return s.Quantile(1) }

// Window is a resettable utilization counter over a reconfiguration
// window R_w: it tracks how many of the window's cycles satisfied some
// predicate ("link busy", "buffer slot occupied").
//
// Link_util is Window{busy cycles}/R_w; Buffer_util uses AddN to
// accumulate occupied slots per cycle and Utilization(capacity×R_w).
type Window struct {
	hits  uint64
	total uint64
}

// Tick records one cycle, hit if the predicate held.
func (w *Window) Tick(hit bool) {
	w.total++
	if hit {
		w.hits++
	}
}

// AddN records one cycle contributing n hits out of max possible (for
// multi-slot resources like buffers).
func (w *Window) AddN(n, max uint64) {
	if n > max {
		panic(fmt.Sprintf("stats: window AddN %d > max %d", n, max))
	}
	w.hits += n
	w.total += max
}

// Total returns the accumulated denominator.
func (w *Window) Total() uint64 { return w.total }

// Utilization returns hits/total in [0,1] (0 when empty).
func (w *Window) Utilization() float64 {
	if w.total == 0 {
		return 0
	}
	return float64(w.hits) / float64(w.total)
}

// Reset zeroes the window (start of a new R_w).
func (w *Window) Reset() { w.hits, w.total = 0, 0 }

// Phase is the measurement phase of a simulation run.
type Phase uint8

const (
	// Warmup: inject, no measurement.
	Warmup Phase = iota
	// Measure: packets injected now are labeled.
	Measure
	// Drain: run until all labeled packets are delivered.
	Drain
	// Done: all labeled packets delivered.
	Done
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case Warmup:
		return "warmup"
	case Measure:
		return "measure"
	case Drain:
		return "drain"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// Measurement implements the paper's labeled-packet methodology.
type Measurement struct {
	warmupCycles  uint64
	measureCycles uint64

	phase        Phase
	measureStart uint64
	measureEnd   uint64 // cycle the Measure phase ended (set on transition)

	labeledInjected  uint64
	labeledDelivered uint64
	labeledDropped   uint64

	// Delivered counts every (non-control) packet delivered during the
	// Measure phase; it is the numerator of accepted throughput.
	delivered uint64
	// Injected counts every packet injected during the Measure phase; it is
	// the numerator of offered load.
	injected uint64

	// Latency collects labeled end-to-end latencies (cycles).
	Latency Sample
	// NetLatency collects labeled network (post-source-queue) latencies.
	NetLatency Sample
}

// NewMeasurement creates a measurement with the given warm-up and
// measurement interval lengths in cycles.
func NewMeasurement(warmupCycles, measureCycles uint64) *Measurement {
	if measureCycles == 0 {
		panic("stats: measurement interval must be positive")
	}
	return &Measurement{warmupCycles: warmupCycles, measureCycles: measureCycles}
}

// Phase returns the current phase.
func (m *Measurement) Phase() Phase { return m.phase }

// Advance moves the phase machine forward given the current cycle. Call
// once per cycle (or at phase-relevant instants).
func (m *Measurement) Advance(cycle uint64) {
	switch m.phase {
	case Warmup:
		if cycle >= m.warmupCycles {
			m.phase = Measure
			m.measureStart = cycle
		}
	case Measure:
		if cycle >= m.measureStart+m.measureCycles {
			m.phase = Drain
			m.measureEnd = cycle
			if m.labeledInjected == m.labeledDelivered+m.labeledDropped {
				m.phase = Done
			}
		}
	case Drain:
		if m.labeledDelivered+m.labeledDropped >= m.labeledInjected {
			m.phase = Done
		}
	}
}

// OnInject records a packet injection. It reports whether the packet
// should be labeled.
func (m *Measurement) OnInject(cycle uint64) (label bool) {
	if m.phase == Measure {
		m.injected++
		m.labeledInjected++
		return true
	}
	return false
}

// OnDeliver records a packet delivery. labeled says whether the packet
// was labeled at injection; latency/netLatency are in cycles.
func (m *Measurement) OnDeliver(labeled bool, latency, netLatency uint64) {
	if m.phase == Measure {
		m.delivered++
	}
	if labeled {
		m.labeledDelivered++
		m.Latency.Add(float64(latency))
		m.NetLatency.Add(float64(netLatency))
	}
}

// OnDrop records a packet discarded by fault injection. Dropped labeled
// packets count toward drain completion, so a permanently failed laser
// cannot wedge a run waiting for deliveries that can never happen.
func (m *Measurement) OnDrop(labeled bool) {
	if labeled {
		m.labeledDropped++
	}
}

// LabeledInFlight returns labeled packets not yet delivered or dropped.
func (m *Measurement) LabeledInFlight() uint64 {
	return m.labeledInjected - m.labeledDelivered - m.labeledDropped
}

// LabeledDelivered returns the number of labeled packets delivered.
func (m *Measurement) LabeledDelivered() uint64 { return m.labeledDelivered }

// LabeledInjected returns the number of labeled packets injected.
func (m *Measurement) LabeledInjected() uint64 { return m.labeledInjected }

// DeliveredInMeasure returns packets delivered during the Measure phase.
func (m *Measurement) DeliveredInMeasure() uint64 { return m.delivered }

// Throughput returns accepted throughput in packets/node/cycle for a
// system of n nodes.
func (m *Measurement) Throughput(nodes int) float64 {
	if nodes <= 0 || m.measureCycles == 0 {
		return 0
	}
	return float64(m.delivered) / float64(nodes) / float64(m.measureCycles)
}

// OfferedLoad returns measured offered load in packets/node/cycle.
func (m *Measurement) OfferedLoad(nodes int) float64 {
	if nodes <= 0 || m.measureCycles == 0 {
		return 0
	}
	return float64(m.injected) / float64(nodes) / float64(m.measureCycles)
}
