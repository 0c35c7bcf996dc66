package stats

import (
	"math"
	"testing"
)

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{{0, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if s.Mean() != 50.5 {
		t.Errorf("Mean = %v, want 50.5", s.Mean())
	}
	if s.Max() != 100 {
		t.Errorf("Max = %v, want 100", s.Max())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.N() != 0 {
		t.Fatal("empty Sample not all-zero")
	}
}

func TestSampleAddAfterQuantile(t *testing.T) {
	var s Sample
	s.Add(3)
	s.Add(1)
	if s.Quantile(0.5) != 1 {
		t.Fatalf("median of {1,3} (nearest-rank) = %v, want 1", s.Quantile(0.5))
	}
	s.Add(2)
	if s.Quantile(0.5) != 2 {
		t.Fatalf("median of {1,2,3} = %v, want 2", s.Quantile(0.5))
	}
}

func TestWindowLinkUtil(t *testing.T) {
	var w Window
	for i := 0; i < 100; i++ {
		w.Tick(i%4 == 0) // busy 25% of cycles
	}
	if got := w.Utilization(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("Utilization = %v, want 0.25", got)
	}
	w.Reset()
	if w.Utilization() != 0 || w.Total() != 0 {
		t.Fatal("Reset did not zero window")
	}
}

func TestWindowBufferUtil(t *testing.T) {
	var w Window
	// 10 cycles of a 16-slot buffer holding 4 slots.
	for i := 0; i < 10; i++ {
		w.AddN(4, 16)
	}
	if got := w.Utilization(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("Utilization = %v, want 0.25", got)
	}
}

func TestWindowAddNPanics(t *testing.T) {
	var w Window
	defer func() {
		if recover() == nil {
			t.Fatal("AddN(n>max) did not panic")
		}
	}()
	w.AddN(17, 16)
}

func TestMeasurementPhases(t *testing.T) {
	m := NewMeasurement(100, 50)
	if m.Phase() != Warmup {
		t.Fatalf("initial phase = %v", m.Phase())
	}
	// During warmup nothing is labeled or counted.
	if m.OnInject(10) {
		t.Fatal("labeled during warmup")
	}
	m.OnDeliver(false, 30, 20)
	m.Advance(99)
	if m.Phase() != Warmup {
		t.Fatalf("phase at 99 = %v, want warmup", m.Phase())
	}
	m.Advance(100)
	if m.Phase() != Measure {
		t.Fatalf("phase at 100 = %v, want measure", m.Phase())
	}
	if !m.OnInject(110) {
		t.Fatal("not labeled during measure")
	}
	m.OnDeliver(true, 40, 25)
	if m.DeliveredInMeasure() != 1 || m.OfferedLoad(1) != 1.0/50 {
		t.Fatal("measure-phase counters wrong")
	}
	// One more labeled injection that stays in flight.
	m.OnInject(120)
	m.Advance(150)
	if m.Phase() != Drain {
		t.Fatalf("phase at 150 = %v, want drain", m.Phase())
	}
	if m.LabeledInFlight() != 1 {
		t.Fatalf("in flight = %d, want 1", m.LabeledInFlight())
	}
	// Deliveries during drain count for latency but not throughput.
	m.OnDeliver(true, 60, 45)
	m.Advance(151)
	if m.Phase() != Done {
		t.Fatalf("phase = %v, want done", m.Phase())
	}
	if m.DeliveredInMeasure() != 1 {
		t.Fatalf("drain delivery leaked into throughput: %d", m.DeliveredInMeasure())
	}
	if m.Latency.N() != 2 {
		t.Fatalf("latency samples = %d, want 2", m.Latency.N())
	}
}

func TestMeasurementDoneImmediatelyIfNothingInFlight(t *testing.T) {
	m := NewMeasurement(10, 10)
	m.Advance(10)
	m.Advance(20)
	if m.Phase() != Done {
		t.Fatalf("phase = %v, want done (nothing labeled)", m.Phase())
	}
}

func TestThroughputAndOfferedLoad(t *testing.T) {
	m := NewMeasurement(0, 1000)
	m.Advance(0)
	for i := 0; i < 640; i++ {
		m.OnInject(uint64(i))
	}
	for i := 0; i < 320; i++ {
		m.OnDeliver(true, 100, 80)
	}
	// 64 nodes over 1000 cycles: offered 640/64/1000 = 0.01, accepted 0.005.
	if got := m.OfferedLoad(64); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("OfferedLoad = %v, want 0.01", got)
	}
	if got := m.Throughput(64); math.Abs(got-0.005) > 1e-12 {
		t.Fatalf("Throughput = %v, want 0.005", got)
	}
	if m.Throughput(0) != 0 {
		t.Fatal("Throughput with 0 nodes should be 0")
	}
}

func TestMeasurementZeroIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMeasurement(_, 0) did not panic")
		}
	}()
	NewMeasurement(10, 0)
}

func TestPhaseString(t *testing.T) {
	for p, want := range map[Phase]string{
		Warmup: "warmup", Measure: "measure", Drain: "drain", Done: "done", Phase(9): "phase(9)",
	} {
		if p.String() != want {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), want)
		}
	}
}
