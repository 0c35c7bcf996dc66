package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTable1Values(t *testing.T) {
	// The paper's Table 1 / Sec. 4.1 operating points.
	cases := []struct {
		l    Level
		gbps float64
		vdd  float64
		mw   float64
	}{
		{Off, 0, 0, 0},
		{Low, 2.5, 0.45, 8.6},
		{Mid, 3.3, 0.60, 26.0},
		{High, 5.0, 0.90, 43.03},
	}
	for _, c := range cases {
		p := Table1[c.l]
		if p.Gbps != c.gbps || p.VDD != c.vdd || p.TotalMW != c.mw {
			t.Errorf("Table1[%v] = %+v, want {%v %v %v}", c.l, p, c.gbps, c.vdd, c.mw)
		}
	}
}

func TestScaledMWMatchesHighReference(t *testing.T) {
	// At the reference point the component sum should be ~43 mW (the paper
	// rounds to 43.03; the raw component sum is 43.30).
	got := ScaledMW(Table1[High])
	if math.Abs(got-43.3029) > 0.01 {
		t.Errorf("ScaledMW(High) = %v, want ~43.30", got)
	}
}

func TestScaledMWLowPoint(t *testing.T) {
	// Scaling the components to 2.5 Gbps / 0.45 V should land near the
	// published 8.6 mW total.
	got := ScaledMW(Table1[Low])
	if math.Abs(got-8.6) > 0.3 {
		t.Errorf("ScaledMW(Low) = %v, want ~8.6", got)
	}
}

func TestScaledMWOffIsZero(t *testing.T) {
	if got := ScaledMW(Table1[Off]); got != 0 {
		t.Errorf("ScaledMW(Off) = %v, want 0", got)
	}
}

func TestScaledMWMonotone(t *testing.T) {
	// Power strictly increases with level.
	prev := -1.0
	for _, l := range []Level{Off, Low, Mid, High} {
		got := ScaledMW(Table1[l])
		if got <= prev && l != Off {
			t.Errorf("ScaledMW not monotone at %v: %v <= %v", l, got, prev)
		}
		prev = got
	}
}

func TestSerializationCyclesPaperValues(t *testing.T) {
	// 64 B packet (512 bits), 2.5 ns cycle (400 MHz):
	//   5 Gbps   → 512/12.5  = 40.96 → 41 cycles
	//   3.3 Gbps → 512/8.25  = 62.06 → 63 cycles
	//   2.5 Gbps → 512/6.25  = 81.92 → 82 cycles
	// An interpolated ladder's endpoints are the paper's Low and High
	// points, so they serialize alike.
	lad := PaperLadder()
	two, err := InterpolatedLadder(2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		lad  *Ladder
		i    int
		want uint64
	}{{lad, 3, 41}, {lad, 2, 63}, {lad, 1, 82}, {two, 2, 41}, {two, 1, 82}}
	for _, c := range cases {
		if got := c.lad.SerializationCycles(512, c.i, 2.5); got != c.want {
			t.Errorf("%d-level ladder: SerializationCycles(512, %d) = %d, want %d", c.lad.Top(), c.i, got, c.want)
		}
	}
}

func TestSerializationCyclesPanicsOnOff(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Off level")
		}
	}()
	PaperLadder().SerializationCycles(512, 0, 2.5)
}

// Property: on any interpolated ladder, serialization time decreases
// (weakly) as the level rises, and is at least 1 cycle.
func TestSerializationMonotoneProperty(t *testing.T) {
	f := func(bitsRaw uint16, nRaw uint8) bool {
		bits := int(bitsRaw)%4096 + 1
		lad, err := InterpolatedLadder(int(nRaw%15) + 2)
		if err != nil {
			return false
		}
		prev := lad.SerializationCycles(bits, 1, 2.5)
		for i := 2; i <= lad.Top(); i++ {
			n := lad.SerializationCycles(bits, i, 2.5)
			if n > prev {
				return false
			}
			prev = n
		}
		return prev >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMeterAccounting(t *testing.T) {
	m := NewMeter(2.5)
	for i := 0; i < 100; i++ { // 100 cycles lit at High, 40 transmitting
		m.AddCycleMW(Table1[High].TotalMW, i < 40)
	}
	m.Observe(100)
	wantSupply := 43.03 // every observed cycle lit at High
	if got := m.AvgSupplyMW(); math.Abs(got-wantSupply) > 1e-9 {
		t.Errorf("AvgSupplyMW = %v, want %v", got, wantSupply)
	}
	wantDyn := 43.03 * 0.4
	if got := m.AvgDynamicMW(); math.Abs(got-wantDyn) > 1e-9 {
		t.Errorf("AvgDynamicMW = %v, want %v", got, wantDyn)
	}
	// Energy: 40 cycles × 43.03 mW × 2.5 ns = 4303 pJ = 4.303 nJ.
	if got := m.DynamicEnergyNJ(); math.Abs(got-4.303) > 1e-9 {
		t.Errorf("DynamicEnergyNJ = %v, want 4.303", got)
	}
}

func TestMeterOffCostsNothing(t *testing.T) {
	m := NewMeter(2.5)
	off := PaperLadder().MW(0)
	for i := 0; i < 1000; i++ {
		m.AddCycleMW(off, false)
	}
	m.Observe(1000)
	if m.AvgSupplyMW() != 0 || m.AvgDynamicMW() != 0 {
		t.Error("Off level consumed power")
	}
}

func TestMeterReset(t *testing.T) {
	m := NewMeter(2.5)
	m.AddCycleMW(Table1[High].TotalMW, true)
	m.Observe(1)
	m.Reset()
	if supply, dyn, cycles := m.Integrals(); supply != 0 || dyn != 0 || cycles != 0 {
		t.Error("Reset did not zero the meter")
	}
}

func TestMeterInvalidCyclePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive cycle time")
		}
	}()
	NewMeter(0)
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{
		Off: "off", Low: "low(2.5G)", Mid: "mid(3.3G)", High: "high(5G)", Level(7): "level(7)",
	} {
		if l.String() != want {
			t.Errorf("Level(%d).String() = %q, want %q", l, l.String(), want)
		}
	}
}

func BenchmarkTable1PowerModel(b *testing.B) {
	// Regenerates Table 1: per-level link power from the analytic
	// component model vs the published totals.
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, l := range []Level{Low, Mid, High} {
			sink += ScaledMW(Table1[l])
		}
	}
	_ = sink
	b.ReportMetric(ScaledMW(Table1[High]), "mW@5G")
	b.ReportMetric(ScaledMW(Table1[Low]), "mW@2.5G")
}
