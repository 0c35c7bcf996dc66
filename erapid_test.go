package erapid

import (
	"context"
	"testing"
)

// fastConfig shrinks the paper configuration for quick API tests.
func fastConfig(mode Mode) Config {
	cfg := DefaultConfig(mode)
	cfg.Boards = 4
	cfg.NodesPerBoard = 4
	cfg.Window = 500
	cfg.WarmupCycles = 2000
	cfg.MeasureCycles = 2000
	cfg.DrainLimitCycles = 40000
	return cfg
}

func TestPublicRun(t *testing.T) {
	cfg := fastConfig(PB)
	cfg.Pattern = Complement
	cfg.Load = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || res.Samples == 0 {
		t.Fatalf("empty result: %+v", res)
	}
}

func TestPublicDefaultsMatchPaper(t *testing.T) {
	cfg := DefaultConfig(NPNB)
	if cfg.Boards != 8 || cfg.NodesPerBoard != 8 {
		t.Errorf("default system %dx%d, want 8x8 (64 nodes)", cfg.Boards, cfg.NodesPerBoard)
	}
	if cfg.Window != 2000 {
		t.Errorf("default R_w = %d, want 2000", cfg.Window)
	}
	if cfg.PacketBytes != 64 || cfg.FlitBytes != 8 {
		t.Errorf("default packet format %dB/%dB, want 64/8", cfg.PacketBytes, cfg.FlitBytes)
	}
	if cfg.RelockCycles != 65 {
		t.Errorf("default relock = %d, want 65", cfg.RelockCycles)
	}
}

func TestPublicModesAndPatterns(t *testing.T) {
	if len(Modes()) != 4 {
		t.Errorf("Modes() = %v", Modes())
	}
	if m, err := ParseMode("P-B"); err != nil || m != PB {
		t.Errorf("ParseMode(P-B) = %v, %v", m, err)
	}
	if len(PaperPatterns()) != 4 {
		t.Errorf("PaperPatterns() = %v", PaperPatterns())
	}
	if len(PatternNames()) < 4 {
		t.Errorf("PatternNames() = %v", PatternNames())
	}
}

func TestPublicSweep(t *testing.T) {
	series, err := SweepContext(context.Background(), SweepRequest{
		Base:     fastConfig(NPNB),
		Patterns: []string{Uniform},
		Modes:    []Mode{NPNB, PB},
		Loads:    []float64{0.2, 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("got %d series", len(series))
	}
}

func TestPublicSystemStepping(t *testing.T) {
	cfg := fastConfig(PB)
	cfg.Load = 0.3
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s.Step()
	}
	if s.Cycle() != 999 {
		t.Fatalf("Cycle() = %d, want 999", s.Cycle())
	}
	if s.InjectedCount() == 0 {
		t.Fatal("no injections after 1000 cycles at load 0.3")
	}
	if len(PaperLoads()) != 9 {
		t.Fatalf("PaperLoads() = %v", PaperLoads())
	}
}
