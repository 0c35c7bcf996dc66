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

// TestCloseMidRunSteps pins stepping after Close: Close collapses a
// multi-worker system to one shard, so the steps that follow still tick
// every board, and a run closed mid-way is bit-identical to the
// one-worker run closed at the same cycle — Result and event stream.
func TestCloseMidRunSteps(t *testing.T) {
	drive := func(workers int) (*Result, eventLog) {
		cfg := fastConfig(PB)
		cfg.Boards, cfg.NodesPerBoard = 8, 8
		cfg.Workers = workers
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var log eventLog
		s.AttachSink(&log)
		s.StepN(300)
		s.Close()
		now := s.StepN(2000)
		if w := s.Workers(); w != 1 {
			t.Errorf("workers=%d: %d workers after Close, want 1", workers, w)
		}
		return s.result(now, false), log
	}
	refRes, refLog := drive(1)
	res, log := drive(2)
	if d := divergence(refRes, refLog, res, log); d != "" {
		t.Errorf("workers=2 closed mid-run vs workers=1: %s", d)
	}
}
