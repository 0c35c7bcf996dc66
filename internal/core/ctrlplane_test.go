package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// TestCtrlPlaneGolden pins the Lock-Step control plane byte for byte
// across ring faults, shapes, window lengths (at 16 boards a DBR
// exchange overruns R_w 300 and 100, so wakes land in the past), modes
// and worker counts: one golden line per cell, the SHA-256 of the
// Result JSON and of the complete JSONL event stream (every StageEnter,
// "abandoned" included). -short keeps the 4x4 cells; -update rewrites
// the file.
func TestCtrlPlaneGolden(t *testing.T) {
	const golden = "testdata/ctrl_plane.golden"
	scenarios := []struct {
		name string
		spec *fault.Spec
	}{
		{"healthy", nil},
		{"dropdelay", &fault.Spec{Seed: 7, CtrlDropRate: 0.2, CtrlDelayRate: 0.3, CtrlDelayCycles: 8}},
		{"delay1", &fault.Spec{Seed: 7, CtrlDelayRate: 0.7, CtrlDelayCycles: 1}},
		{"mixed", faultSpec()},
	}
	want := map[string]string{}
	if data, err := os.ReadFile(golden); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			name, _, _ := strings.Cut(line, " ")
			want[name] = line
		}
	} else if !*updateGolden {
		t.Fatalf("%v (run with -update to create)", err)
	}
	var lines []string
	for _, sc := range scenarios {
		for _, sh := range [][2]int{{4, 4}, {8, 8}, {16, 2}} {
			if testing.Short() && sh[0] != 4 {
				continue
			}
			for _, window := range []uint64{2000, 300, 100} {
				for _, mode := range []Mode{PB, NPB, PNB} {
					for _, workers := range []int{1, 2} {
						cfg := DefaultConfig(mode)
						cfg.Boards, cfg.NodesPerBoard, cfg.Window, cfg.Workers = sh[0], sh[1], window, workers
						cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainLimitCycles = 3000, 3000, 20000
						cfg.Pattern, cfg.Load, cfg.Seed, cfg.Faults = traffic.Complement, 0.4, 12345, sc.spec
						name := fmt.Sprintf("%s-%dx%d-rw%d-%s/w%d", sc.name, sh[0], sh[1], window, mode, workers)
						t.Run(name, func(t *testing.T) {
							s, err := NewSystem(cfg)
							if err != nil {
								t.Fatal(err)
							}
							evHash := sha256.New()
							jsonl := telemetry.NewJSONL(evHash)
							s.AttachSink(jsonl)
							rj, err := json.Marshal(s.Run())
							if err != nil {
								t.Fatal(err)
							}
							if err := jsonl.Flush(); err != nil {
								t.Fatal(err)
							}
							got := fmt.Sprintf("%s %x %x", name, sha256.Sum256(rj), evHash.Sum(nil))
							lines = append(lines, got)
							if !*updateGolden && got != want[name] {
								t.Errorf("control plane diverged from golden:\ngot:  %s\nwant: %s", got, want[name])
							}
						})
					}
				}
			}
		}
	}
	if *updateGolden && !testing.Short() {
		if err := os.WriteFile(golden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
