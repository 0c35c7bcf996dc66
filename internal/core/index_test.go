package core

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/link"
	"repro/internal/router"
	"repro/internal/traffic"
)

// checkIndex asserts, by exhaustive scan, that every active set the
// cycle engines walk agrees with the predicate it indexes: each board's
// NIC and rx bits with PacketSource.HasWork, each IBI router's port sets
// and each fabric shard's transmitter set with the counters and buffers
// behind them (Router.CheckIndex, Fabric.CheckIndex).
func (s *System) checkIndex() error {
	sources := func(kind string, set router.ActiveSet, srcs []*link.PacketSource, bi int) error {
		for i, src := range srcs {
			if set.Has(i) != src.HasWork() {
				return fmt.Errorf("board %d %s %d: bit %v, HasWork %v", bi, kind, i, set.Has(i), src.HasWork())
			}
		}
		return nil
	}
	for bi, bd := range s.boards {
		if err := sources("nic", bd.nicSet, bd.nics, bi); err != nil {
			return err
		}
		if err := sources("rx", bd.rxSet, bd.rxSources, bi); err != nil {
			return err
		}
		if err := bd.ibi.CheckIndex(); err != nil {
			return err
		}
	}
	return s.fab.CheckIndex()
}

// shapedFaultSpec is faultSpec retimed into a run of the given length
// and, below the four boards its laser targets assume, retargeted at the
// two lasers a 2-board system has.
func shapedFaultSpec(boards int, cycles uint64) *fault.Spec {
	sp := faultSpec()
	for i := range sp.Events {
		e := &sp.Events[i]
		e.At = cycles / 4 * uint64(i+1) / 2
		if e.Duration > 0 {
			e.Duration = cycles / 5
		}
		if boards < 4 && e.Kind != fault.KindCtrlOutage {
			e.Board, e.Wavelength, e.Dest = i%2, 1, 1-i%2
		}
	}
	return sp
}

// TestIndexInvariant steps short seeded runs one cycle at a time and
// checks every active set after every cycle, across the modes, three
// traffic shapes, healthy and faulted, one- to three-word sets (2×2 …
// 66×2) and both cycle engines. One system per shape and worker count
// is Reset from run to run — each run is abandoned with packets in
// flight, so the check straight after Reset also proves no bit survives
// a rewind.
func TestIndexInvariant(t *testing.T) {
	shapes := []struct {
		boards, nodes int
		cycles        uint64
	}{{2, 2, 600}, {8, 8, 600}, {16, 4, 400}, {66, 2, 250}}
	if testing.Short() {
		shapes = shapes[:2]
	}
	for _, sh := range shapes {
		for _, workers := range []int{1, 2} {
			sh, workers := sh, workers
			t.Run(fmt.Sprintf("%dx%d/w%d", sh.boards, sh.nodes, workers), func(t *testing.T) {
				t.Parallel()
				var s *System
				defer func() {
					if s != nil {
						s.Close()
					}
				}()
				for _, mode := range Modes() {
					for _, pattern := range []string{traffic.Uniform, traffic.Complement, traffic.Hotspot} {
						for _, faulted := range []bool{false, true} {
							cfg := DefaultConfig(mode)
							cfg.Boards, cfg.NodesPerBoard = sh.boards, sh.nodes
							cfg.Workers = workers
							cfg.Pattern, cfg.Load = pattern, 0.7
							if n := sh.boards * sh.nodes; pattern == traffic.Complement && n&(n-1) != 0 {
								cfg.Pattern = traffic.Tornado // complement needs a power-of-two node count
							}
							cfg.Window = 100
							cfg.WarmupCycles, cfg.MeasureCycles = sh.cycles/4, sh.cycles
							cfg.Seed = 11
							if faulted {
								cfg.Faults = shapedFaultSpec(sh.boards, sh.cycles)
							}
							label := fmt.Sprintf("%s/%s/faulted=%v", mode, cfg.Pattern, faulted)
							var err error
							if s == nil {
								s, err = NewSystem(cfg)
							} else {
								err = s.Reset(cfg)
							}
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if err := s.checkIndex(); err != nil {
								t.Fatalf("%s: before the first cycle: %v", label, err)
							}
							for c := uint64(0); c < sh.cycles; c++ {
								now := s.StepN(1)
								if err := s.checkIndex(); err != nil {
									t.Fatalf("%s: after cycle %d: %v", label, now, err)
								}
							}
							if s.DeliveredCount() == 0 || s.Quiescent() {
								t.Fatalf("%s: delivered %d of %d injected; the run exercised nothing or left nothing in flight",
									label, s.DeliveredCount(), s.InjectedCount())
							}
						}
					}
				}
			})
		}
	}
}
