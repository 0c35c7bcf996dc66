package core

import "testing"

// TestWorkersValidation pins the config surface: negative counts are
// rejected, 0/1 stay serial, and counts above Boards clamp.
func TestWorkersValidation(t *testing.T) {
	cfg := fastConfig(PB)
	cfg.Workers = -1
	if _, err := NewSystem(cfg); err == nil {
		t.Error("Workers=-1 accepted")
	}
	for _, w := range []int{0, 1} {
		cfg.Workers = w
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		if got := s.Workers(); got != 1 {
			t.Errorf("Workers=%d: effective %d, want 1 (serial)", w, got)
		}
		s.Close()
	}
	cfg.Workers = 64
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Workers(); got != cfg.Boards {
		t.Errorf("Workers=64 on %d boards: effective %d, want %d", cfg.Boards, got, cfg.Boards)
	}
	s.Close()
}
