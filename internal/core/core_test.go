package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/flit"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// fastConfig returns a small, quick configuration for integration tests.
func fastConfig(mode Mode) Config {
	cfg := DefaultConfig(mode)
	cfg.Boards = 4
	cfg.NodesPerBoard = 4
	cfg.Window = 500
	cfg.WarmupCycles = 3000
	cfg.MeasureCycles = 3000
	cfg.DrainLimitCycles = 60000
	return cfg
}

// mustRun runs cfg through warm-up, measurement and drain.
func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestModeParsing(t *testing.T) {
	cases := map[string]Mode{
		"NP-NB": NPNB, "np-nb": NPNB, "NPNB": NPNB,
		"P-NB": PNB, "NP-B": NPB, "P-B": PB, "pb": PB, "p_b": PB,
	}
	for s, want := range cases {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode(bogus) did not error")
	}
	for _, m := range Modes() {
		back, err := ParseMode(m.String())
		if err != nil || back != m {
			t.Errorf("round trip failed for %v", m)
		}
	}
}

func TestModeFlags(t *testing.T) {
	if NPNB.PowerAware() || NPNB.BandwidthReconfig() {
		t.Error("NP-NB flags wrong")
	}
	if !PNB.PowerAware() || PNB.BandwidthReconfig() {
		t.Error("P-NB flags wrong")
	}
	if NPB.PowerAware() || !NPB.BandwidthReconfig() {
		t.Error("NP-B flags wrong")
	}
	if !PB.PowerAware() || !PB.BandwidthReconfig() {
		t.Error("P-B flags wrong")
	}
}

func TestCapacityFormula(t *testing.T) {
	// 64-node paper system: N_c = 63/(64·41) ≈ 0.024 packets/node/cycle
	// (optical channel bound below the electrical 1/32 bound).
	cfg := DefaultConfig(NPNB)
	want := 63.0 / (64.0 * 41.0)
	if got := cfg.Capacity(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Capacity = %v, want %v", got, want)
	}
	// A very wide system becomes electrically bound.
	cfg.Boards = 32
	cfg.NodesPerBoard = 2
	elec := 1.0 / 32.0
	opt := 63.0 / (4.0 * 41.0)
	_ = opt
	if got := cfg.Capacity(); got != elec {
		t.Fatalf("wide system Capacity = %v, want electrical bound %v", got, elec)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Clusters = 2 },
		func(c *Config) { c.Boards = 1 },
		func(c *Config) { c.VCs = 0 },
		func(c *Config) { c.Load = 0; c.InjectionRate = 0 },
		func(c *Config) { c.Pattern = "nosuch" },
		func(c *Config) { c.MeasureCycles = 0 },
		func(c *Config) { c.MaxHold = -1 },
		func(c *Config) { c.Pattern = traffic.Complement; c.NodesPerBoard = 3 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(NPNB)
		mutate(&cfg)
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("mutation %d: config accepted", i)
		}
	}
	if _, err := NewSystem(fastConfig(PB)); err != nil {
		t.Errorf("fast config rejected: %v", err)
	}
}

func TestRunCompletesAndConserves(t *testing.T) {
	cfg := fastConfig(NPNB)
	cfg.Load = 0.3
	r := mustRun(t, cfg)
	if r.Truncated {
		t.Fatal("moderate load run truncated")
	}
	if r.Samples == 0 {
		t.Fatal("no latency samples")
	}
	if r.Throughput <= 0 {
		t.Fatal("zero throughput")
	}
	// Below saturation, accepted ≈ offered.
	if r.Saturated() {
		t.Fatalf("saturated at load 0.3: thr=%v offered=%v", r.Throughput, r.OfferedLoad)
	}
	if r.Delivered > r.Injected {
		t.Fatalf("delivered %d > injected %d", r.Delivered, r.Injected)
	}
	// Latency sanity: at least the minimum pipeline (electrical injection
	// 32 cycles + router pipeline + optical 41 + propagation).
	if r.AvgLatency < 50 {
		t.Fatalf("AvgLatency = %v, implausibly small", r.AvgLatency)
	}
	if r.P95Latency < r.P50Latency || r.MaxLatency < r.P99Latency {
		t.Fatal("latency quantiles not ordered")
	}
}

func TestSeedChangesResults(t *testing.T) {
	cfg := fastConfig(NPNB)
	cfg.Load = 0.5
	cfg.Seed = 1
	a := mustRun(t, cfg)
	cfg.Seed = 2
	b := mustRun(t, cfg)
	if a.Injected == b.Injected && a.AvgLatency == b.AvgLatency {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestUniformNPNBEqualsNPB(t *testing.T) {
	// Paper Sec 4.2: for uniform traffic NP-NB and NP-B perform the same
	// (balanced load leaves nothing to re-allocate) and reconfiguration
	// adds no latency penalty.
	cfgA := fastConfig(NPNB)
	cfgA.Load = 0.5
	a := mustRun(t, cfgA)
	cfgB := fastConfig(NPB)
	cfgB.Load = 0.5
	b := mustRun(t, cfgB)
	if a.Throughput != b.Throughput {
		t.Fatalf("uniform: NP-NB thr %v != NP-B thr %v", a.Throughput, b.Throughput)
	}
	if a.AvgLatency != b.AvgLatency {
		t.Fatalf("uniform: NP-B latency penalty: %v vs %v", b.AvgLatency, a.AvgLatency)
	}
	if b.Ctrl.Reassignments != 0 {
		t.Fatalf("uniform traffic triggered %d reassignments", b.Ctrl.Reassignments)
	}
}

func TestComplementReconfigurationWins(t *testing.T) {
	// The worst-case pattern: NP-B must deliver a large throughput
	// improvement over NP-NB at high load (the paper reports ~4×), at a
	// correspondingly higher dynamic power.
	cfgA := fastConfig(NPNB)
	cfgA.Pattern = traffic.Complement
	cfgA.Load = 0.9
	cfgA.DrainLimitCycles = 40000
	a := mustRun(t, cfgA)
	cfgB := fastConfig(NPB)
	cfgB.Pattern = traffic.Complement
	cfgB.Load = 0.9
	cfgB.DrainLimitCycles = 40000
	b := mustRun(t, cfgB)
	gain := b.Throughput / a.Throughput
	if gain < 2.0 {
		t.Fatalf("complement NP-B/NP-NB throughput gain = %.2f, want >= 2", gain)
	}
	if b.Ctrl.Reassignments == 0 {
		t.Fatal("no reassignments under complement traffic")
	}
	if b.PowerDynamicMW <= a.PowerDynamicMW {
		t.Fatalf("NP-B dynamic power %v not above NP-NB %v", b.PowerDynamicMW, a.PowerDynamicMW)
	}
}

func TestPowerAwareSavesPower(t *testing.T) {
	// P-B must consume less dynamic power than NP-B at equal load with a
	// small throughput cost (paper: 25-50% savings, <5-8% degradation).
	for _, load := range []float64{0.2, 0.5} {
		cfgA := fastConfig(NPB)
		cfgA.Load = load
		a := mustRun(t, cfgA)
		cfgB := fastConfig(PB)
		cfgB.Load = load
		b := mustRun(t, cfgB)
		if b.PowerDynamicMW >= a.PowerDynamicMW {
			t.Fatalf("load %v: P-B power %v >= NP-B %v", load, b.PowerDynamicMW, a.PowerDynamicMW)
		}
		if b.PowerSupplyMW >= a.PowerSupplyMW {
			t.Fatalf("load %v: P-B supply power %v >= NP-B %v", load, b.PowerSupplyMW, a.PowerSupplyMW)
		}
		drop := 1 - b.Throughput/a.Throughput
		if drop > 0.10 {
			t.Fatalf("load %v: P-B throughput degradation %.1f%% exceeds 10%%", load, drop*100)
		}
	}
}

func TestIntraBoardDelivery(t *testing.T) {
	// A packet between nodes of the same board must bypass the optical
	// domain entirely.
	cfg := fastConfig(NPNB)
	cfg.InjectionRate = 1e-9 // effectively no background traffic
	cfg.Load = 0
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &flit.Packet{
		ID: 999, Src: 1, Dst: 2, SrcBoard: 0, DstBoard: 0,
		Size: 64, FlitBytes: 8, InjectedAt: 0,
	}
	s.nics[1].Enqueue(p)
	for now := uint64(0); now < 300 && p.ReceivedAt == 0; now++ {
		s.Step()
	}
	if p.ReceivedAt == 0 {
		t.Fatal("intra-board packet never delivered")
	}
	// Purely electrical: 8 flits × 4 cycles + pipeline ≈ 40-60 cycles.
	if p.ReceivedAt > 100 {
		t.Fatalf("intra-board latency %d cycles, want < 100 (no optical hop)", p.ReceivedAt)
	}
	if s.fab.Channel(1, 1).Deliveries() != 0 {
		t.Fatal("intra-board packet crossed the optical fabric")
	}
}

func TestLabeledPacketsAllDrain(t *testing.T) {
	cfg := fastConfig(PB)
	cfg.Load = 0.5
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	if r.Truncated {
		t.Fatal("run truncated")
	}
	if got := s.Measurement().LabeledInFlight(); got != 0 {
		t.Fatalf("%d labeled packets still in flight after Done", got)
	}
	if s.Measurement().Phase() != stats.Done {
		t.Fatalf("phase = %v, want done", s.Measurement().Phase())
	}
	if err := s.Fabric().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputMonotoneBelowSaturation(t *testing.T) {
	// Accepted throughput grows with offered load below saturation.
	var prev float64
	for _, load := range []float64{0.1, 0.3, 0.5} {
		cfg := fastConfig(NPNB)
		cfg.Load = load
		r := mustRun(t, cfg)
		if r.Throughput <= prev {
			t.Fatalf("throughput not increasing: %v at load %v (prev %v)", r.Throughput, load, prev)
		}
		prev = r.Throughput
	}
}

func TestExplicitInjectionRateOverridesLoad(t *testing.T) {
	cfg := fastConfig(NPNB)
	cfg.Load = 0.9
	cfg.InjectionRate = 0.001
	r := mustRun(t, cfg)
	if math.Abs(r.OfferedLoad-0.001) > 0.0005 {
		t.Fatalf("OfferedLoad = %v, want ~0.001 (explicit rate)", r.OfferedLoad)
	}
}

func TestResultStringAndHelpers(t *testing.T) {
	cfg := fastConfig(PB)
	cfg.Load = 0.3
	r := mustRun(t, cfg)
	if r.String() == "" {
		t.Error("empty result string")
	}
	if nt := r.NormalizedThroughput(); nt <= 0 || nt > 1.5 {
		t.Errorf("NormalizedThroughput = %v out of plausible range", nt)
	}
}

func TestAllPaperPatternsRun(t *testing.T) {
	for _, pat := range traffic.PaperNames() {
		cfg := fastConfig(PB)
		cfg.Pattern = pat
		cfg.Load = 0.3
		cfg.DrainLimitCycles = 40000
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pat, err)
		}
		if r.Throughput <= 0 {
			t.Fatalf("%s: zero throughput", pat)
		}
	}
}

func TestPowerLevelsLadder(t *testing.T) {
	// A finer ladder must still run correctly and save at least as much
	// power at light load (more intermediate points to settle on).
	for _, levels := range []int{2, 5} {
		cfg := fastConfig(PB)
		cfg.Load = 0.3
		cfg.PowerLevels = levels
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("levels=%d: %v", levels, err)
		}
		if r.Throughput <= 0 {
			t.Fatalf("levels=%d: zero throughput", levels)
		}
	}
	// Invalid level counts rejected.
	cfg := fastConfig(PB)
	cfg.PowerLevels = 1
	if _, err := Run(cfg); err == nil {
		t.Fatal("PowerLevels=1 accepted")
	}
}

func TestTracerCapturesPacketLifecycle(t *testing.T) {
	cfg := fastConfig(NPB)
	cfg.Pattern = traffic.Complement
	cfg.Load = 0.6
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder(100000)
	rec.Filter = func(ev telemetry.Event) bool { return ev.Kind <= telemetry.ChannelReassign }
	s.AttachSink(rec)
	for i := 0; i < 8000; i++ {
		s.Step()
	}
	want := []telemetry.Kind{
		telemetry.PacketInject, telemetry.PacketNetEnter, telemetry.PacketLaserEnqueue,
		telemetry.PacketLaserTransmit, telemetry.PacketOpticalArrive, telemetry.PacketDeliver,
	}
	for _, k := range want {
		if rec.Count(k) == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}
	if rec.Count(telemetry.ChannelReassign) == 0 {
		t.Error("no reassign events under complement NP-B")
	}
	// A delivered packet's journey must be causally ordered.
	evs := rec.Events()
	var delivered uint64
	for _, ev := range evs {
		if ev.Kind == telemetry.PacketDeliver {
			delivered = ev.Packet
			break
		}
	}
	if delivered == 0 {
		t.Fatal("no delivered packet found in trace")
	}
	var j []telemetry.Event
	for _, ev := range evs {
		if ev.Packet == delivered {
			j = append(j, ev)
		}
	}
	if len(j) != len(want) {
		t.Fatalf("journey has %d events (%v), want %d", len(j), j, len(want))
	}
	for i, ev := range j {
		if ev.Kind != want[i] {
			t.Fatalf("journey step %d = %v, want %v (journey %v)", i, ev.Kind, want[i], j)
		}
		if i > 0 && ev.Cycle < j[i-1].Cycle {
			t.Fatalf("journey time ran backwards: %v", j)
		}
	}
}

func TestPortRadiusLimitsReconfigurationGain(t *testing.T) {
	// Cost-reduced arrays (the paper's future work): with PortRadius 1,
	// a complement hot flow can recruit at most the channels whose owners'
	// arrays cover it — the throughput gain shrinks versus the full array
	// but the network still runs correctly.
	base := fastConfig(NPNB)
	base.Pattern = traffic.Complement
	base.Load = 0.9
	base.DrainLimitCycles = 40000
	ref := mustRun(t, base)
	full := fastConfig(NPB)
	full.Pattern = traffic.Complement
	full.Load = 0.9
	full.DrainLimitCycles = 40000
	fres := mustRun(t, full)
	limited := full
	limited.PortRadius = 1
	lres := mustRun(t, limited)
	gainFull := fres.Throughput / ref.Throughput
	gainLim := lres.Throughput / ref.Throughput
	if gainLim >= gainFull {
		t.Fatalf("limited array gain %.2f not below full-array gain %.2f", gainLim, gainFull)
	}
	if gainLim < 1.0 {
		t.Fatalf("limited array fell below the static baseline: %.2f", gainLim)
	}
	sys, err := NewSystem(limited)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Fabric().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBurstyInjectionIncreasesTailLatency(t *testing.T) {
	base := fastConfig(NPNB)
	base.Load = 0.5
	smooth := mustRun(t, base)
	bursty := base
	bursty.BurstLength = 300
	bursty.BurstDuty = 0.25
	bres := mustRun(t, bursty)
	// Same mean rate within sampling noise.
	if math.Abs(bres.OfferedLoad-smooth.OfferedLoad) > 0.25*smooth.OfferedLoad {
		t.Fatalf("bursty offered %v vs smooth %v: means diverged", bres.OfferedLoad, smooth.OfferedLoad)
	}
	// Bursts pile up queues: the p99 latency must be clearly worse.
	if bres.P99Latency <= smooth.P99Latency {
		t.Fatalf("bursty p99 %v not above smooth %v", bres.P99Latency, smooth.P99Latency)
	}
}

func TestBurstyValidationInCore(t *testing.T) {
	cfg := fastConfig(NPNB)
	cfg.BurstLength = 0.5
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("sub-cycle burst length accepted")
	}
	cfg = fastConfig(NPNB)
	cfg.BurstLength = 100
	cfg.BurstDuty = 1.5
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("duty > 1 accepted")
	}
	// NaN fails every < and > test, so each field must reject it (and
	// ±Inf) explicitly.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"Load=NaN", func(c *Config) { c.Load = nan }},
		{"Load=+Inf", func(c *Config) { c.Load = inf }},
		{"InjectionRate=NaN", func(c *Config) { c.InjectionRate = nan }},
		{"InjectionRate=+Inf", func(c *Config) { c.InjectionRate = inf }},
		{"BurstLength=NaN", func(c *Config) { c.BurstLength = nan }},
		{"BurstLength=+Inf", func(c *Config) { c.BurstLength = inf }},
		{"BurstDuty=NaN", func(c *Config) { c.BurstLength, c.BurstDuty = 100, nan }},
		{"CycleNS=NaN", func(c *Config) { c.CycleNS = nan }},
		{"CycleNS=+Inf", func(c *Config) { c.CycleNS = inf }},
		{"CycleNS=-Inf", func(c *Config) { c.CycleNS = -inf }},
	} {
		cfg := fastConfig(NPNB)
		tc.edit(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestFairnessIndex(t *testing.T) {
	// Uniform traffic: every node receives roughly equally → index near 1.
	cfg := fastConfig(NPNB)
	cfg.Load = 0.4
	uni := mustRun(t, cfg)
	if uni.Fairness < 0.9 || uni.Fairness > 1.0+1e-9 {
		t.Fatalf("uniform fairness = %v, want ~1", uni.Fairness)
	}
	// Hotspot reception is concentrated → index clearly lower.
	cfg.Pattern = traffic.Hotspot
	hot := mustRun(t, cfg)
	if hot.Fairness >= uni.Fairness {
		t.Fatalf("hotspot fairness %v not below uniform %v", hot.Fairness, uni.Fairness)
	}
}

func TestJainEdgeCases(t *testing.T) {
	if got := jain([]uint64{0, 0}); got != 0 {
		t.Fatalf("jain(zero) = %v", got)
	}
	if got := jain([]uint64{5, 5, 5, 5}); got < 1-1e-12 || got > 1+1e-12 {
		t.Fatalf("jain(equal) = %v, want 1", got)
	}
	if got := jain([]uint64{10, 0, 0, 0}); got < 0.25-1e-12 || got > 0.25+1e-12 {
		t.Fatalf("jain(single) = %v, want 0.25", got)
	}
}

// TestFlat1024NodeFootprint builds the 1 024-node flat system (128 boards
// of 8) and steps two R_w windows within a 150 MB heap. Its full laser
// arrays hold B(B-1)² ≈ 2 M lasers, which fit only because a laser
// exists once it is used.
func TestFlat1024NodeFootprint(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("builds a 1 024-node system")
	}
	// Return what earlier tests left to the OS, so the heap measured is
	// this system's.
	debug.FreeOSMemory()
	cfg := DefaultConfig(PB)
	cfg.Boards, cfg.NodesPerBoard = 128, 8
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.StepN(2 * cfg.Window)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := ms.HeapSys - ms.HeapReleased
	t.Logf("HeapSys %d MB (%d MB returned to the OS) after %d cycles", ms.HeapSys>>20, ms.HeapReleased>>20, s.Cycle())
	if heap > 150<<20 {
		t.Errorf("heap %d MB, want < 150 MB", heap>>20)
	}
}
