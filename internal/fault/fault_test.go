package fault

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

func newFabric(t *testing.T, boards int) *optical.Fabric {
	t.Helper()
	top := topology.MustNewSRS(boards, 4)
	f, err := optical.NewFabric(top, sim.NewEngine(), optical.Config{
		CycleNS:        2.5,
		PropCycles:     8,
		RelockCycles:   65,
		QueueCap:       16,
		VCs:            2,
		FlitsPerPacket: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustInjector(t *testing.T, f *optical.Fabric, window, seed uint64, spec *Spec) *Injector {
	t.Helper()
	in, err := New(f, window, seed, spec)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSpecValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"kill with duration", Spec{Events: []Event{{Kind: KindLaserKill, Board: 0, Wavelength: 1, Dest: 1, Duration: 5}}}},
		{"degrade without duration", Spec{Events: []Event{{Kind: KindLaserDegrade, Board: 0, Wavelength: 1, Dest: 1}}}},
		{"stick without level", Spec{Events: []Event{{Kind: KindLevelStick, Board: 0, Wavelength: 1, Dest: 1}}}},
		{"outage without duration", Spec{Events: []Event{{Kind: KindCtrlOutage}}}},
		{"unknown kind", Spec{Events: []Event{{Kind: "laser-melt"}}}},
		{"wavelength zero", Spec{Events: []Event{{Kind: KindLaserKill, Board: 0, Wavelength: 0, Dest: 1}}}},
		{"negative board", Spec{Events: []Event{{Kind: KindLaserKill, Board: -1, Wavelength: 1, Dest: 1}}}},
		{"self loop", Spec{Events: []Event{{Kind: KindLaserKill, Board: 2, Wavelength: 1, Dest: 2}}}},
		{"degrade rate out of range", Spec{LaserDegradeRate: 1.5, DegradeCycles: 10}},
		{"degrade rate without cycles", Spec{LaserDegradeRate: 0.1}},
		{"drop rate negative", Spec{CtrlDropRate: -0.1}},
		{"delay rate without cycles", Spec{CtrlDelayRate: 0.1}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	good := Spec{
		Events: []Event{
			{At: 10, Kind: KindLaserKill, Board: 0, Wavelength: 1, Dest: 1},
			{At: 20, Kind: KindLaserDegrade, Board: 1, Wavelength: 2, Dest: 0, Duration: 100},
			{At: 30, Kind: KindLevelStick, Board: 0, Wavelength: 1, Dest: 2, Level: 1},
			{At: 40, Kind: KindCtrlOutage, Duration: 50},
		},
		LaserDegradeRate: 0.01, DegradeCycles: 200,
		CtrlDropRate: 0.05, CtrlDelayRate: 0.05, CtrlDelayCycles: 8,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestParseSpec(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"events":[{"at":5,"kind":"laser-kill","board":0,"wavelength":1,"dest":1}]}`)); err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string]string{
		"bad json":      `{`,
		"unknown field": `{"evnets":[]}`,
		"trailing data": `{} {}`,
		"invalid spec":  `{"events":[{"at":1,"kind":"laser-kill","duration":3,"board":0,"wavelength":1,"dest":1}]}`,
	} {
		if _, err := ParseSpec([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	s := &Spec{
		Seed: 99,
		Events: []Event{
			{At: 10, Kind: KindLaserKill, Board: 0, Wavelength: 1, Dest: 1},
			{At: 40, Kind: KindCtrlOutage, Duration: 50},
		},
		CtrlDropRate: 0.25,
	}
	data, err := MarshalSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip changed the spec:\n%+v\n%+v", s, back)
	}
}

func TestEmptyAndHasCtrlFaults(t *testing.T) {
	var nilSpec *Spec
	if !nilSpec.Empty() || nilSpec.HasCtrlFaults() {
		t.Fatal("nil spec must be empty and ctrl-fault free")
	}
	if !(&Spec{Seed: 5}).Empty() {
		t.Fatal("seed-only spec must be empty")
	}
	if (&Spec{Events: []Event{{Kind: KindLaserKill}}}).Empty() {
		t.Fatal("spec with events reported empty")
	}
	if (&Spec{Events: []Event{{Kind: KindLaserKill, Board: 0, Wavelength: 1, Dest: 1}}}).HasCtrlFaults() {
		t.Fatal("laser-only spec reported ctrl faults")
	}
	for _, s := range []*Spec{
		{CtrlDropRate: 0.1},
		{CtrlDelayRate: 0.1, CtrlDelayCycles: 4},
		{Events: []Event{{At: 1, Kind: KindCtrlOutage, Duration: 10}}},
	} {
		if !s.HasCtrlFaults() {
			t.Fatalf("%+v did not report ctrl faults", s)
		}
	}
}

func TestNewRejects(t *testing.T) {
	f := newFabric(t, 4)
	if _, err := New(f, 500, 1, nil); err == nil {
		t.Error("nil spec accepted")
	}
	if _, err := New(f, 0, 1, &Spec{}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := New(f, 500, 1, &Spec{Events: []Event{
		{At: 1, Kind: KindLaserKill, Board: 9, Wavelength: 1, Dest: 1}}}); err == nil {
		t.Error("out-of-range board accepted")
	}
	if _, err := New(f, 500, 1, &Spec{Events: []Event{
		{At: 1, Kind: KindLevelStick, Board: 0, Wavelength: 1, Dest: 1, Level: 99}}}); err == nil {
		t.Error("non-operating stick level accepted")
	}
	if _, err := New(f, 500, 1, &Spec{Events: []Event{
		{At: 1, Kind: KindLaserKill, Board: 0, Wavelength: 1, Dest: 1, Duration: 9}}}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestScheduledKill(t *testing.T) {
	f := newFabric(t, 4)
	in := mustInjector(t, f, 500, 1, &Spec{Events: []Event{
		{At: 10, Kind: KindLaserKill, Board: 0, Wavelength: 1, Dest: 1},
	}})
	// The laser is dark (board 2 drives channel (1, λ1)) and exists only
	// once the fault strikes it.
	in.Tick(5)
	if f.Laser(0, 1, 1) != nil {
		t.Fatal("dark laser materialised before its fault")
	}
	in.Tick(10)
	l := f.Laser(0, 1, 1)
	if !l.Failed() || !l.PermanentlyFailed() {
		t.Fatal("laser not permanently failed at schedule")
	}
	if got := in.Counters().LaserKills; got != 1 {
		t.Fatalf("LaserKills = %d", got)
	}
	if want := []int{1, 0, 0, 0}; !reflect.DeepEqual(in.impaired, want) {
		t.Fatalf("impaired = %v, want %v", in.impaired, want)
	}
	// Kills never recover; the impairment persists across windows and
	// every closed window counts as degraded for board 0.
	for now := uint64(11); now < 2001; now++ {
		in.Tick(now)
	}
	if !l.Failed() {
		t.Fatal("kill recovered")
	}
	dw := in.DegradedWindows()
	if dw[0] != 4 {
		t.Fatalf("DegradedWindows[0] = %d, want 4", dw[0])
	}
	for b := 1; b < 4; b++ {
		if dw[b] != 0 {
			t.Fatalf("DegradedWindows[%d] = %d, want 0", b, dw[b])
		}
	}
}

func TestDegradeRestores(t *testing.T) {
	f := newFabric(t, 4)
	in := mustInjector(t, f, 500, 1, &Spec{Events: []Event{
		{At: 10, Kind: KindLaserDegrade, Board: 1, Wavelength: 2, Dest: 3, Duration: 40},
	}})
	l := f.Laser(1, 2, 3)
	in.Tick(10)
	if !l.Failed() || l.PermanentlyFailed() {
		t.Fatal("degrade state wrong")
	}
	in.Tick(49)
	if !l.Failed() {
		t.Fatal("restored early")
	}
	in.Tick(50)
	if l.Failed() {
		t.Fatal("not restored at due cycle")
	}
	ctr := in.Counters()
	if ctr.LaserDegrades != 1 || ctr.LaserRestores != 1 {
		t.Fatalf("counters = %+v", ctr)
	}
	if want := []int{0, 0, 0, 0}; !reflect.DeepEqual(in.impaired, want) {
		t.Fatalf("impaired = %v after restore, want %v", in.impaired, want)
	}
	// A second fault on an already-failed laser is ignored (first wins).
	in2 := mustInjector(t, f, 500, 1, &Spec{Events: []Event{
		{At: 5, Kind: KindLaserDegrade, Board: 0, Wavelength: 1, Dest: 1, Duration: 100},
		{At: 6, Kind: KindLaserDegrade, Board: 0, Wavelength: 1, Dest: 1, Duration: 1000},
	}})
	in2.Tick(5)
	in2.Tick(6)
	if got := in2.Counters().LaserDegrades; got != 1 {
		t.Fatalf("double degrade counted %d times", got)
	}
	in2.Tick(105)
	if f.Laser(0, 1, 1).Failed() {
		t.Fatal("first fault's restore did not apply")
	}
}

func TestStickPinsLevel(t *testing.T) {
	f := newFabric(t, 4)
	in := mustInjector(t, f, 500, 1, &Spec{Events: []Event{
		{At: 10, Kind: KindLevelStick, Board: 0, Wavelength: 1, Dest: 1, Level: 1, Duration: 30},
		{At: 12, Kind: KindLevelStick, Board: 0, Wavelength: 1, Dest: 1, Level: 2, Duration: 5},
	}})
	in.Tick(10)
	l := f.Laser(0, 1, 1)
	if !l.Stuck() || l.Level() != 1 {
		t.Fatalf("stuck=%v level=%d", l.Stuck(), l.Level())
	}
	l.SetLevel(3, 11, 65)
	if l.Level() != 1 {
		t.Fatal("SetLevel changed a stuck laser")
	}
	// Second stick on a stuck laser is ignored.
	in.Tick(12)
	if got := in.Counters().LevelSticks; got != 1 {
		t.Fatalf("LevelSticks = %d", got)
	}
	in.Tick(40)
	if l.Stuck() {
		t.Fatal("not unstuck at due cycle")
	}
	l.SetLevel(3, 41, 65)
	if l.Level() != 3 {
		t.Fatal("SetLevel still blocked after unstick")
	}
	if got := in.Counters().LevelUnsticks; got != 1 {
		t.Fatalf("LevelUnsticks = %d", got)
	}
}

func TestCtrlOutageAndRates(t *testing.T) {
	f := newFabric(t, 4)
	in := mustInjector(t, f, 500, 1, &Spec{Events: []Event{
		{At: 100, Kind: KindCtrlOutage, Duration: 50},
	}})
	in.Tick(100)
	if in.outageUntil != 150 {
		t.Fatalf("outage ends at %d, want 150", in.outageUntil)
	}
	if drop, _ := in.FilterRingMsg(0, 1, 120); !drop {
		t.Fatal("message survived an outage")
	}
	if drop, _ := in.FilterRingMsg(0, 1, 150); drop {
		t.Fatal("message dropped after the outage")
	}
	if got := in.Counters().CtrlDrops; got != 1 {
		t.Fatalf("CtrlDrops = %d", got)
	}

	always := mustInjector(t, f, 500, 1, &Spec{CtrlDropRate: 1})
	if drop, _ := always.FilterRingMsg(1, 2, 5); !drop {
		t.Fatal("p=1 drop did not drop")
	}
	delayed := mustInjector(t, f, 500, 1, &Spec{CtrlDelayRate: 1, CtrlDelayCycles: 7})
	drop, extra := delayed.FilterRingMsg(1, 2, 5)
	if drop || extra != 7 {
		t.Fatalf("p=1 delay: drop=%v extra=%d", drop, extra)
	}
	never := mustInjector(t, f, 500, 1, &Spec{Events: []Event{
		{At: 1, Kind: KindCtrlOutage, Duration: 1}}})
	if drop, extra := never.FilterRingMsg(1, 2, 500); drop || extra != 0 {
		t.Fatal("healthy message altered")
	}
}

func TestSweepDegradeDeterministic(t *testing.T) {
	spec := &Spec{Seed: 77, LaserDegradeRate: 0.2, DegradeCycles: 120}
	runSweep := func(seed uint64) (Counters, []uint64) {
		f := newFabric(t, 4)
		in := mustInjector(t, f, 500, seed, spec)
		for now := uint64(0); now < 5000; now++ {
			in.Tick(now)
		}
		return in.Counters(), in.DegradedWindows()
	}
	a, adw := runSweep(1)
	b, bdw := runSweep(2) // spec seed wins; run seed must not matter
	if a != b || !reflect.DeepEqual(adw, bdw) {
		t.Fatalf("same spec seed diverged:\n%+v %v\n%+v %v", a, adw, b, bdw)
	}
	if a.LaserDegrades == 0 || a.LaserRestores == 0 {
		t.Fatalf("sweep injected nothing: %+v", a)
	}

	// Seed 0 falls back to the run seed: different run seeds must give
	// different fault sequences.
	open := &Spec{LaserDegradeRate: 0.2, DegradeCycles: 120}
	runOpen := func(seed uint64) Counters {
		f := newFabric(t, 4)
		in := mustInjector(t, f, 500, seed, open)
		for now := uint64(0); now < 5000; now++ {
			in.Tick(now)
		}
		return in.Counters()
	}
	if runOpen(1) == runOpen(2) {
		t.Fatal("run seeds 1 and 2 produced identical sweeps (fallback broken?)")
	}
}

func TestEventsAppliedInOrder(t *testing.T) {
	f := newFabric(t, 4)
	// Listed out of order; the injector must sort by At.
	in := mustInjector(t, f, 500, 1, &Spec{Events: []Event{
		{At: 30, Kind: KindLaserKill, Board: 0, Wavelength: 2, Dest: 2},
		{At: 10, Kind: KindLaserKill, Board: 0, Wavelength: 1, Dest: 1},
	}})
	in.Tick(10)
	if !f.Laser(0, 1, 1).Failed() || f.Laser(0, 2, 2).Failed() {
		t.Fatal("events not applied in At order")
	}
	in.Tick(30)
	if !f.Laser(0, 2, 2).Failed() {
		t.Fatal("second event not applied")
	}
}

func TestTelemetryEmission(t *testing.T) {
	f := newFabric(t, 4)
	in := mustInjector(t, f, 500, 1, &Spec{
		Events: []Event{
			{At: 10, Kind: KindLaserDegrade, Board: 0, Wavelength: 1, Dest: 1, Duration: 20},
			{At: 12, Kind: KindLevelStick, Board: 0, Wavelength: 2, Dest: 2, Level: 1, Duration: 20},
			{At: 14, Kind: KindCtrlOutage, Duration: 10},
		},
	})
	rec := telemetry.NewRecorder(128)
	in.SetSink(rec)
	for now := uint64(0); now < 40; now++ {
		in.Tick(now)
	}
	in.FilterRingMsg(0, 1, 20) // inside the outage
	var labels []string
	for _, ev := range rec.Events() {
		labels = append(labels, ev.Kind.String()+"/"+ev.Label)
	}
	joined := strings.Join(labels, " ")
	for _, want := range []string{
		"laser-fail/degrade", "laser-fail/stick",
		"laser-restore/restore", "laser-restore/unstick",
		"ctrl-drop/outage",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in emitted events: %s", want, joined)
		}
	}
}

// TestRestoresInScheduleOrder pins the recovery order: restores leave
// by due cycle and, on a shared due cycle, in the order their faults
// were scheduled — not in laser order, and not behind a restore that
// was scheduled earlier but falls due later.
func TestRestoresInScheduleOrder(t *testing.T) {
	f := newFabric(t, 4)
	in := mustInjector(t, f, 500, 1, &Spec{Events: []Event{
		{At: 10, Kind: KindLaserDegrade, Board: 1, Wavelength: 2, Dest: 3, Duration: 50},
		{At: 10, Kind: KindLaserDegrade, Board: 0, Wavelength: 1, Dest: 1, Duration: 50},
		{At: 20, Kind: KindLaserDegrade, Board: 0, Wavelength: 2, Dest: 2, Duration: 40},
		{At: 30, Kind: KindLaserDegrade, Board: 3, Wavelength: 1, Dest: 0, Duration: 10},
	}})
	rec := telemetry.NewRecorder(128)
	in.SetSink(rec)
	for now := uint64(0); now <= 70; now++ {
		in.Tick(now)
	}
	type restored struct {
		cycle          uint64
		board, wl, dst int
	}
	var got []restored
	for _, ev := range rec.Events() {
		if ev.Kind == telemetry.LaserRestore {
			got = append(got, restored{ev.Cycle, ev.Board, ev.Wavelength, ev.Dest})
		}
	}
	want := []restored{{40, 3, 1, 0}, {60, 1, 2, 3}, {60, 0, 1, 1}, {60, 0, 2, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restores %+v, want %+v", got, want)
	}
}
