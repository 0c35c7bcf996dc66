package core

import "testing"

// TestResetIncompatible pins the structural-compatibility boundary:
// slab-shaping fields reject, per-run fields accept.
func TestResetIncompatible(t *testing.T) {
	cfg := fastConfig(PB)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reject := []struct {
		label  string
		mutate func(*Config)
	}{
		{"Boards", func(c *Config) { c.Boards = 8; c.NodesPerBoard = 2 }},
		{"NodesPerBoard", func(c *Config) { c.NodesPerBoard++ }},
		{"VCs", func(c *Config) { c.VCs++ }},
		{"PacketBytes", func(c *Config) { c.PacketBytes *= 2 }},
		{"LaserQueueCap", func(c *Config) { c.LaserQueueCap++ }},
		{"RelockCycles", func(c *Config) { c.RelockCycles++ }},
	}
	for _, tc := range reject {
		c := cfg
		tc.mutate(&c)
		if s.ResetCompatible(c) {
			t.Errorf("%s change reported compatible", tc.label)
		}
		if err := s.Reset(c); err == nil {
			t.Errorf("%s change accepted by Reset", tc.label)
		}
	}
	accept := cfg
	accept.Mode = NPNB
	accept.Window = cfg.Window * 2
	accept.Seed = 42
	accept.Workers = 2
	if !s.ResetCompatible(accept) {
		t.Error("per-run field changes reported incompatible")
	}
	if err := s.Reset(accept); err != nil {
		t.Errorf("per-run field changes rejected: %v", err)
	}
	s.Close()
}
