// Package power models the opto-electronic link power of E-RAPID.
//
// The paper (Sec. 3.1, Sec. 4.1, Table 1) gives three operating points
// for a complete optical link (VCSEL + driver on the transmit side,
// photodetector + TIA + CDR on the receive side):
//
//	2.5 Gbps @ 0.45 V →  8.60 mW
//	3.3 Gbps @ 0.60 V → 26.00 mW
//	5.0 Gbps @ 0.90 V → 43.03 mW
//
// and per-component scaling laws: VCSEL ∝ V_DD, VCSEL driver ∝ V_DD²·BR,
// TIA ∝ V_DD·BR, CDR ∝ V_DD²·BR. The published per-level totals are used
// as canonical values; the analytic component model (Components,
// ScaledMW) is provided for ablations and reproduces the 5 Gbps and
// 2.5 Gbps totals from the component constants (the 3.3 Gbps published
// total, 26 mW, sits above what the pure scaling laws predict —
// see EXPERIMENTS.md).
package power

import "fmt"

// Level is a discrete link power level (bit rate + supply voltage pair).
type Level uint8

const (
	// Off means the laser and its receiver are shut down (DLS).
	Off Level = iota
	// Low is 2.5 Gbps at 0.45 V.
	Low
	// Mid is 3.3 Gbps at 0.60 V.
	Mid
	// High is 5.0 Gbps at 0.90 V.
	High

	// NumLevels counts the levels including Off.
	NumLevels = 4
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Off:
		return "off"
	case Low:
		return "low(2.5G)"
	case Mid:
		return "mid(3.3G)"
	case High:
		return "high(5G)"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// Point is one operating point of an optical link.
type Point struct {
	Gbps    float64 // line rate
	VDD     float64 // supply voltage, volts
	TotalMW float64 // whole-link power (TX+RX), milliwatts
}

// Table1 holds the paper's published operating points, indexed by Level.
var Table1 = [NumLevels]Point{
	Off:  {Gbps: 0, VDD: 0, TotalMW: 0},
	Low:  {Gbps: 2.5, VDD: 0.45, TotalMW: 8.6},
	Mid:  {Gbps: 3.3, VDD: 0.60, TotalMW: 26.0},
	High: {Gbps: 5.0, VDD: 0.90, TotalMW: 43.03},
}

// Component is one element of the optical link with its reference power
// at the High operating point and its scaling exponents.
type Component struct {
	Name  string
	RefMW float64 // power at 5 Gbps / 0.9 V
	VExp  int     // exponent on V_DD ratio
	BRExp int     // exponent on bit-rate ratio
}

// Components lists the link elements with the constants published in
// Sec. 4.1: VCSEL 1.5 µW, driver 1.23 mW (C=0.62 pF), photodetector
// 1.4 µW, TIA 25.02 mW (I_ds=27.8 mA), CDR 17.05 mW (C=9.26 pF).
var Components = []Component{
	{Name: "VCSEL", RefMW: 0.0015, VExp: 1, BRExp: 0},
	{Name: "VCSEL driver", RefMW: 1.23, VExp: 2, BRExp: 1},
	{Name: "photodetector", RefMW: 0.0014, VExp: 0, BRExp: 1},
	{Name: "TIA", RefMW: 25.02, VExp: 1, BRExp: 1},
	{Name: "CDR", RefMW: 17.05, VExp: 2, BRExp: 1},
}

// ScaledMW returns the analytic whole-link power at a given operating
// point using the component scaling laws.
func ScaledMW(p Point) float64 {
	if p.Gbps == 0 {
		return 0
	}
	ref := Table1[High]
	var total float64
	for _, c := range Components {
		v := c.RefMW
		for i := 0; i < c.VExp; i++ {
			v *= p.VDD / ref.VDD
		}
		for i := 0; i < c.BRExp; i++ {
			v *= p.Gbps / ref.Gbps
		}
		total += v
	}
	return total
}

// Meter integrates link power over simulated time.
//
// Two accountings are kept (see DESIGN.md §5 and EXPERIMENTS.md):
//
//   - supply energy: P(level) integrated over every cycle a laser is lit,
//     whether or not it is transmitting (the "link is powered" view of
//     Fig. 3);
//   - dynamic energy: P(level) integrated only over cycles the link is
//     actually transmitting (the utilization-weighted view the paper's
//     overall power-consumption comparisons follow).
type Meter struct {
	cycleNS float64

	supplyMWCycles  float64
	dynamicMWCycles float64
	cycles          uint64
}

// NewMeter creates a meter for a given router cycle time in nanoseconds.
func NewMeter(cycleNS float64) *Meter {
	if cycleNS <= 0 {
		panic("power: cycle time must be positive")
	}
	return &Meter{cycleNS: cycleNS}
}

// AddCycleMW records one cycle of one link drawing mw milliwatts of
// supply power, transmitting or not.
func (m *Meter) AddCycleMW(mw float64, transmitting bool) {
	m.supplyMWCycles += mw
	if transmitting {
		m.dynamicMWCycles += mw
	}
}

// Observe advances the meter's notion of elapsed cycles (for averaging).
// Call once per simulated cycle of the measurement window, regardless of
// how many links were recorded.
func (m *Meter) Observe(cycles uint64) { m.cycles += cycles }

// DynamicEnergyNJ returns the integrated dynamic energy in nanojoules.
func (m *Meter) DynamicEnergyNJ() float64 {
	return m.dynamicMWCycles * m.cycleNS * 1e-3
}

// AvgSupplyMW returns the time-average supply power across the observed
// window in milliwatts (0 if nothing observed).
func (m *Meter) AvgSupplyMW() float64 {
	if m.cycles == 0 {
		return 0
	}
	return m.supplyMWCycles / float64(m.cycles)
}

// AvgDynamicMW returns the time-average dynamic power in milliwatts.
func (m *Meter) AvgDynamicMW() float64 {
	if m.cycles == 0 {
		return 0
	}
	return m.dynamicMWCycles / float64(m.cycles)
}

// Integrals returns the raw accumulators: supply and dynamic power
// integrals in mW·cycles, and the observed cycle count. Telemetry takes
// deltas of these between reconfiguration windows, so per-window power
// can be derived without resetting the meter out from under the
// measurement driver.
func (m *Meter) Integrals() (supplyMWCycles, dynamicMWCycles float64, cycles uint64) {
	return m.supplyMWCycles, m.dynamicMWCycles, m.cycles
}

// Reset zeroes the meter (start of a measurement interval).
func (m *Meter) Reset() {
	m.supplyMWCycles = 0
	m.dynamicMWCycles = 0
	m.cycles = 0
}
