package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// faultSpec returns a schedule that exercises every fault kind against
// the 4-board fast config.
func faultSpec() *fault.Spec {
	return &fault.Spec{
		Seed: 99,
		Events: []fault.Event{
			{At: 3500, Kind: fault.KindLaserKill, Board: 0, Wavelength: 2, Dest: 2},
			{At: 3700, Kind: fault.KindLaserDegrade, Board: 1, Wavelength: 1, Dest: 2, Duration: 400},
			{At: 4000, Kind: fault.KindLevelStick, Board: 2, Wavelength: 3, Dest: 1, Level: 1, Duration: 900},
			{At: 4200, Kind: fault.KindCtrlOutage, Duration: 600},
		},
		LaserDegradeRate: 0.002,
		DegradeCycles:    300,
		CtrlDropRate:     0.05,
		CtrlDelayRate:    0.05,
		CtrlDelayCycles:  8,
	}
}

// TestRunDeterminismFaulted extends the determinism guard to fault
// injection: the same (Config, Seed, Spec) must produce bit-identical
// Results in all four modes, including every availability metric.
func TestRunDeterminismFaulted(t *testing.T) {
	for _, mode := range Modes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			cfg := fastConfig(mode)
			cfg.Pattern = traffic.Complement
			cfg.Load = 0.4
			cfg.Seed = 12345
			cfg.Faults = faultSpec()

			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("two faulted runs with identical config/seed diverged:\nfirst:  %+v\nsecond: %+v", a, b)
			}
			if a.Faults.LaserKills != 1 {
				t.Fatalf("schedule not applied: %+v", a.Faults)
			}
		})
	}
}

// TestEmptyFaultSpecIsIdentity: a non-nil but empty spec must not
// attach an injector, and the run must be bit-identical to Faults=nil.
func TestEmptyFaultSpecIsIdentity(t *testing.T) {
	cfg := fastConfig(PB)
	cfg.Load = 0.5
	cfg.Seed = 7
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &fault.Spec{Seed: 42} // carries a seed but injects nothing
	empty, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, empty) {
		t.Fatalf("empty fault spec changed the run:\nplain: %+v\nempty: %+v", plain, empty)
	}
	if empty.DegradedWindows != nil {
		t.Fatal("empty spec attached an injector")
	}
}

// TestSingleKillAvailability is the headline acceptance scenario: one
// permanent laser failure mid-measurement on the paper's 64-node P-B
// system must leave at least 99% of measured traffic delivered, with
// the DBR fallback moving the flow to surviving wavelengths.
func TestSingleKillAvailability(t *testing.T) {
	cfg := DefaultConfig(PB)
	cfg.Pattern = traffic.Uniform
	cfg.Load = 0.5
	cfg.Seed = 7
	cfg.Faults = &fault.Spec{Events: []fault.Event{
		{At: cfg.WarmupCycles + 2000, Kind: fault.KindLaserKill, Board: 2, Wavelength: 3, Dest: 5},
	}}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Truncated {
		t.Fatal("faulted run truncated")
	}
	if r.Faults.LaserKills != 1 {
		t.Fatalf("kill not applied: %+v", r.Faults)
	}
	if r.DeliveredFraction < 0.99 {
		t.Fatalf("delivered fraction %.4f < 0.99 after a single laser kill", r.DeliveredFraction)
	}
	if r.DegradedWindows[2] == 0 {
		t.Fatal("killed board not accounted as degraded")
	}
}

// TestCtrlFaultsDoNotWedge: heavy control-ring loss must never wedge a
// reconfiguration window — the timeout/retry path has to keep every RC
// cycling and the run must still complete and drain.
func TestCtrlFaultsDoNotWedge(t *testing.T) {
	cfg := fastConfig(PB)
	cfg.Pattern = traffic.Complement
	cfg.Load = 0.3
	cfg.Seed = 3
	cfg.Faults = &fault.Spec{Seed: 11, CtrlDropRate: 0.2}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Truncated {
		t.Fatal("run truncated: control faults wedged the drain")
	}
	if r.Faults.CtrlDrops == 0 {
		t.Fatal("no control messages dropped at rate 0.2")
	}
	if r.Ctrl.Timeouts == 0 {
		t.Fatal("drops never triggered a bounded-receive timeout")
	}
	if r.Ctrl.Windows == 0 {
		t.Fatal("no windows processed")
	}
	if r.DeliveredFraction < 0.99 {
		t.Fatalf("delivered fraction %.4f: control-plane faults must not destroy data traffic", r.DeliveredFraction)
	}
}

// TestKillWithoutFallbackDrops: in NP-NB there is no DBR fallback, so
// killing a flow's static laser must destroy that flow's packets — the
// drop path (rather than a wedge) is the degradation mode, and the
// accounting must show it.
func TestKillWithoutFallbackDrops(t *testing.T) {
	cfg := fastConfig(NPNB)
	cfg.Pattern = traffic.Complement
	cfg.Load = 0.3
	cfg.Seed = 7
	top := topology.MustNewSRS(cfg.Boards, cfg.NodesPerBoard)
	cfg.Faults = &fault.Spec{Events: []fault.Event{
		{At: cfg.WarmupCycles + 500, Kind: fault.KindLaserKill,
			Board: 1, Wavelength: top.Wavelength(1, 2), Dest: 2},
	}}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Truncated {
		t.Fatal("run truncated: labeled drops must terminate the drain")
	}
	if r.DroppedByFault == 0 {
		t.Fatal("static-path kill dropped nothing")
	}
	if r.DeliveredFraction >= 1 {
		t.Fatal("delivered fraction unaffected by a static-path kill")
	}
	if r.Injected < r.Delivered+r.DroppedByFault {
		t.Fatalf("conservation violated: injected %d < delivered %d + dropped %d",
			r.Injected, r.Delivered, r.DroppedByFault)
	}
}

// TestKillHotFlowRepairsAndSurvives: killing the hot complement flow's
// static laser in P-B must trigger the DBR dead-channel repair and the
// surviving-wavelength fallback, keeping measured delivery >= 99%.
func TestKillHotFlowRepairsAndSurvives(t *testing.T) {
	cfg := fastConfig(PB)
	cfg.Pattern = traffic.Complement
	cfg.Load = 0.3
	cfg.Seed = 7
	top := topology.MustNewSRS(cfg.Boards, cfg.NodesPerBoard)
	cfg.Faults = &fault.Spec{Events: []fault.Event{
		{At: cfg.WarmupCycles + 500, Kind: fault.KindLaserKill,
			Board: 0, Wavelength: top.Wavelength(0, 3), Dest: 3},
	}}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Truncated {
		t.Fatal("faulted run truncated")
	}
	if r.Ctrl.FaultRepairs == 0 {
		t.Fatal("dead channel never repaired")
	}
	if r.DeliveredFraction < 0.99 {
		t.Fatalf("delivered fraction %.4f < 0.99 despite DBR fallback", r.DeliveredFraction)
	}
}

// TestFaultConservationQuick is the testing/quick conservation
// property: under randomized fault schedules, once injection stops and
// the network drains, every injected packet is either delivered or
// dropped by a fault (nothing is lost or duplicated), the fabric
// invariants hold, and the supply power never exceeds the all-lasers-
// at-top bound.
func TestFaultConservationQuick(t *testing.T) {
	check := func(seed uint64, killPick, ratePick uint8) bool {
		cfg := fastConfig(PB)
		cfg.Pattern = traffic.Complement
		cfg.Load = 0.4
		cfg.Seed = seed%1000 + 1
		b := cfg.Boards
		kb := int(killPick) % b
		kd := (kb + 1 + int(killPick/8)%(b-1)) % b
		kw := 1 + int(killPick/32)%(b-1)
		cfg.Faults = &fault.Spec{
			Seed: seed + 1,
			Events: []fault.Event{
				{At: 2000 + uint64(killPick)*10, Kind: fault.KindLaserKill, Board: kb, Wavelength: kw, Dest: kd},
			},
			LaserDegradeRate: float64(ratePick%8) / 400,
			DegradeCycles:    200,
			CtrlDropRate:     float64(ratePick%4) / 40,
		}
		s, err := NewSystem(cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		limit := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainLimitCycles
		for s.Measurement().Phase() != stats.Done && s.Cycle() < limit {
			s.Step()
		}
		// Stop offering traffic and drain to quiescence: conservation must
		// close exactly, faults included.
		s.SetInjectionRate(0)
		for i := 0; i < 200000 && !s.Quiescent(); i++ {
			s.Step()
		}
		if !s.Quiescent() {
			t.Logf("seed %d: not quiescent: injected %d delivered %d dropped %d",
				seed, s.InjectedCount(), s.DeliveredCount(), s.DroppedByFault())
			return false
		}
		if err := s.Fabric().CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		// Supply power bound: every populated laser lit at the ladder top.
		bound := s.Fabric().SupplyBoundMW()
		if supply := s.Fabric().Meter().AvgSupplyMW(); supply > bound {
			t.Logf("seed %d: supply %f exceeds all-top bound %f", seed, supply, bound)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenFaultedRun locks the complete observable outcome of a
// faulted reference run — availability, fault counters, control-plane
// recovery counters, per-board degradation — byte for byte. Regenerate
// with -update after intentional behavior changes.
func TestGoldenFaultedRun(t *testing.T) {
	cfg := fastConfig(PB)
	cfg.Pattern = traffic.Complement
	cfg.Load = 0.4
	cfg.Seed = 12345
	cfg.Faults = faultSpec()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "mode %s pattern %s load %.2f seed %d\n", r.Mode, r.Pattern, r.Load, cfg.Seed)
	fmt.Fprintf(&b, "cycles %d truncated %v\n", r.Cycles, r.Truncated)
	fmt.Fprintf(&b, "injected %d delivered %d droppedByFault %d\n", r.Injected, r.Delivered, r.DroppedByFault)
	fmt.Fprintf(&b, "deliveredFraction %.6f\n", r.DeliveredFraction)
	fmt.Fprintf(&b, "throughput %.6f avgLatency %.2f p95 %.0f\n", r.Throughput, r.AvgLatency, r.P95Latency)
	fmt.Fprintf(&b, "power dynamic %.4f supply %.4f\n", r.PowerDynamicMW, r.PowerSupplyMW)
	f := r.Faults
	fmt.Fprintf(&b, "faults kills %d degrades %d restores %d sticks %d unsticks %d ctrlDrops %d ctrlDelays %d\n",
		f.LaserKills, f.LaserDegrades, f.LaserRestores, f.LevelSticks, f.LevelUnsticks, f.CtrlDrops, f.CtrlDelays)
	fmt.Fprintf(&b, "ctrl timeouts %d retries %d stale %d abandoned %d repairs %d reassignments %d\n",
		r.Ctrl.Timeouts, r.Ctrl.Retries, r.Ctrl.StaleMsgs, r.Ctrl.AbandonedCycles, r.Ctrl.FaultRepairs, r.Ctrl.Reassignments)
	fmt.Fprintf(&b, "degradedWindows %v\n", r.DegradedWindows)

	golden := filepath.Join("testdata", "faulted_run.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if b.String() != string(want) {
		t.Fatalf("faulted reference run diverged from golden:\ngot:\n%swant:\n%s", b.String(), want)
	}
}
