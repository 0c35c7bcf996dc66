package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// hierTestConfig returns a small, fast two-tier configuration: racks
// of boards x nodes under one inter-rack fabric.
func hierTestConfig(racks, boards, nodes int) Config {
	cfg := DefaultConfig(PB)
	cfg.Tiers = []TierSpec{
		{Boards: boards, NodesPerBoard: nodes},
		{Boards: racks},
	}
	cfg.Load = 0.3
	cfg.Window = 500
	cfg.WarmupCycles = 1500
	cfg.MeasureCycles = 1500
	return cfg
}

// TestSingleTierV2Identity: a v2 document with one tier describes the
// same simulation as its flat v1 form — bit-identical Result and
// telemetry stream, across every mode. This is the
// schema-migration safety property: wrapping an existing config in a
// single-entry tiers array changes nothing.
func TestSingleTierV2Identity(t *testing.T) {
	runOnce := func(cfg Config) (*Result, []telemetry.Event) {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		tel := sys.EnableTelemetry(TelemetryConfig{})
		res, err := sys.RunContext(context.Background())
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res, tel.Recorder().Events()
	}
	for _, mode := range Modes() {
		flat := DefaultConfig(mode)
		flat.Boards = 4
		flat.NodesPerBoard = 2
		flat.Load = 0.4
		flat.Window = 500
		flat.WarmupCycles = 1000
		flat.MeasureCycles = 1000

		v2 := flat
		v2.Boards = 0
		v2.NodesPerBoard = 0
		v2.Tiers = []TierSpec{{Boards: 4, NodesPerBoard: 2}}

		if got, want := v2.Digest(), flat.Digest(); got != want {
			t.Fatalf("%s: single-tier v2 digest %s != flat digest %s", mode, got, want)
		}
		resFlat, evFlat := runOnce(flat)
		resV2, evV2 := runOnce(v2)
		if !reflect.DeepEqual(resFlat, resV2) {
			t.Errorf("%s: single-tier v2 result differs from flat:\nflat: %+v\nv2:   %+v", mode, resFlat, resV2)
		}
		if !reflect.DeepEqual(evFlat, evV2) {
			t.Errorf("%s: single-tier v2 telemetry stream differs from flat (%d vs %d events)",
				mode, len(evFlat), len(evV2))
		}
	}
}

// TestTierDigestStability: a serialized v1 document and its v2
// single-tier equivalent content-address identically, and a genuinely
// multi-tier config gets a distinct digest.
func TestTierDigestStability(t *testing.T) {
	v1, err := ParseConfig([]byte(`{"Boards":8,"NodesPerBoard":8,"Load":0.5}`))
	if err != nil {
		t.Fatalf("v1 parse: %v", err)
	}
	v2, err := ParseConfig([]byte(`{"schema_version":2,"tiers":[{"Boards":8,"NodesPerBoard":8}],"Load":0.5}`))
	if err != nil {
		t.Fatalf("v2 parse: %v", err)
	}
	if v1.Digest() != v2.Digest() {
		t.Errorf("single-tier v2 digest %s != v1 digest %s", v2.Digest(), v1.Digest())
	}
	c1, err := v1.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := v2.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(c1) != string(c2) {
		t.Errorf("canonical forms differ:\nv1: %s\nv2: %s", c1, c2)
	}
	if got, want := v1.SchemaVersion(), 1; got != want {
		t.Errorf("flat SchemaVersion = %d, want %d", got, want)
	}

	multi, err := ParseConfig([]byte(`{"tiers":[{"Boards":8,"NodesPerBoard":8},{"Boards":4}],"Load":0.5}`))
	if err != nil {
		t.Fatalf("multi-tier parse: %v", err)
	}
	if multi.Digest() == v1.Digest() {
		t.Error("multi-tier config digests identically to its flat rack")
	}
	if got, want := multi.SchemaVersion(), 2; got != want {
		t.Errorf("multi-tier SchemaVersion = %d, want %d", got, want)
	}
}

// TestHierSmoke16x8x8 runs the issue's 1k-node shape — 16 racks of 8
// boards x 8 nodes (1024 nodes) — and checks the aggregate invariants
// and the per-tier breakdown.
func TestHierSmoke16x8x8(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-node hierarchical run")
	}
	t.Parallel()
	cfg := hierTestConfig(16, 8, 8)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Truncated {
		t.Fatal("drain truncated at load 0.3")
	}
	// Conservation: every delivered or fault-dropped packet was injected
	// (unlabeled drain-phase packets may legitimately remain in flight),
	// and every labeled packet was delivered on this healthy run.
	if res.Injected < res.Delivered+res.DroppedByFault {
		t.Errorf("conservation violated: injected %d < delivered %d + dropped %d",
			res.Injected, res.Delivered, res.DroppedByFault)
	}
	if res.DeliveredFraction != 1 {
		t.Errorf("DeliveredFraction = %v, want 1 (healthy run)", res.DeliveredFraction)
	}
	if res.Throughput <= 0 || res.Samples == 0 {
		t.Errorf("empty measurement: throughput %v, samples %d", res.Throughput, res.Samples)
	}

	if len(res.Tiers) != 2 {
		t.Fatalf("len(Tiers) = %d, want 2", len(res.Tiers))
	}
	t0, t1 := res.Tiers[0], res.Tiers[1]
	if t0.Systems != 16 || t0.Boards != 8 || t0.NodesPerBoard != 8 {
		t.Errorf("tier 0 shape = %d systems of %dx%d, want 16 of 8x8", t0.Systems, t0.Boards, t0.NodesPerBoard)
	}
	if t1.Systems != 1 || t1.Boards != 16 || t1.NodesPerBoard != 64 {
		t.Errorf("tier 1 shape = %d systems of %dx%d, want 1 of 16x64", t1.Systems, t1.Boards, t1.NodesPerBoard)
	}
	for _, tr := range res.Tiers {
		if tr.SupplyBoundMW <= 0 {
			t.Errorf("tier %d: SupplyBoundMW = %v, want > 0", tr.Tier, tr.SupplyBoundMW)
		}
		if tr.PowerSupplyMW > tr.SupplyBoundMW {
			t.Errorf("tier %d: supply power %v mW exceeds the all-lasers-high bound %v mW",
				tr.Tier, tr.PowerSupplyMW, tr.SupplyBoundMW)
		}
		if tr.DeliveredFraction != 1 {
			t.Errorf("tier %d: DeliveredFraction = %v, want 1", tr.Tier, tr.DeliveredFraction)
		}
		if tr.Injected == 0 || tr.Delivered == 0 {
			t.Errorf("tier %d: no traffic (injected %d, delivered %d)", tr.Tier, tr.Injected, tr.Delivered)
		}
	}
	// The aggregate power is the sum of the tiers'.
	if sum := t0.PowerSupplyMW + t1.PowerSupplyMW; !approxEqual(sum, res.PowerSupplyMW) {
		t.Errorf("aggregate supply %v != tier sum %v", res.PowerSupplyMW, sum)
	}
	if sum := t0.Injected + t1.Injected; sum != res.Injected {
		t.Errorf("aggregate injected %d != tier sum %d", res.Injected, sum)
	}
}

func approxEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	s := a
	if b > s {
		s = b
	}
	return d <= 1e-9*s
}

// TestHierRunnerReuse: consecutive hierarchical jobs through one
// Runner (the service worker pattern) reuse pooled subsystems and stay
// bit-identical to fresh construction.
func TestHierRunnerReuse(t *testing.T) {
	cfg := hierTestConfig(3, 4, 2)
	fresh := mustRun(t, cfg)
	var r Runner
	for i := 0; i < 2; i++ {
		got, err := r.Run(cfg)
		if err != nil {
			t.Fatalf("pooled run %d: %v", i, err)
		}
		if !reflect.DeepEqual(fresh, got) {
			t.Errorf("pooled run %d differs from fresh construction", i)
		}
	}
}

// TestHierTelemetryPrefixes: per-subsystem collectors come back
// labeled, with every series name carrying its tier/instance prefix.
func TestHierTelemetryPrefixes(t *testing.T) {
	cfg := hierTestConfig(2, 4, 2)
	var r Runner
	r.EnableTelemetry(TelemetryConfig{EventCap: -1})
	if _, err := r.Run(cfg); err != nil {
		t.Fatal(err)
	}
	tels := r.Telemetries()
	if len(tels) != 3 {
		t.Fatalf("len(Telemetries) = %d, want 3 (2 racks + fabric)", len(tels))
	}
	want := []string{"tier0/rack0/", "tier0/rack1/", "tier1/"}
	for i, ht := range tels {
		if ht.Prefix != want[i] {
			t.Errorf("telemetry %d prefix = %q, want %q", i, ht.Prefix, want[i])
		}
		found := false
		for _, name := range ht.T.Registry().SeriesNames() {
			if len(name) >= len(ht.Prefix) && name[:len(ht.Prefix)] == ht.Prefix {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("telemetry %d: no series carries prefix %q", i, ht.Prefix)
		}
	}
}

// TestNewSystemRejectsMultiTier: the flat constructor refuses
// hierarchical configs instead of silently simulating one rack.
func TestNewSystemRejectsMultiTier(t *testing.T) {
	cfg := hierTestConfig(2, 4, 2)
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("NewSystem accepted a multi-tier config")
	}
	if _, err := NewHier(DefaultConfig(PB)); err == nil {
		t.Fatal("NewHier accepted a flat config")
	}
}

// TestTierValidationErrors: invalid tier fields surface as structured
// ValidationError entries indexed Tiers[i].Field.
func TestTierValidationErrors(t *testing.T) {
	cfg := hierTestConfig(2, 4, 2)
	cfg.Tiers[1].Wavelengths = 7
	err := cfg.Validate()
	if err == nil {
		t.Fatal("Validate accepted an invalid tier wavelength override")
	}
	ve, ok := err.(ValidationError)
	if !ok {
		t.Fatalf("error type %T, want ValidationError", err)
	}
	found := false
	for _, fe := range ve {
		if fe.Field == "Tiers[1].Wavelengths" {
			found = true
		}
	}
	if !found {
		t.Errorf("no Tiers[1].Wavelengths field error in %v", ve)
	}
}
