package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"repro/internal/telemetry"
)

// hashSink folds the telemetry stream into a running SHA-256, so a
// multi-hundred-thousand-event stream is pinned by one constant.
type hashSink struct {
	h hash.Hash
	n int
}

func newHashSink() *hashSink { return &hashSink{h: sha256.New()} }

func (s *hashSink) Emit(ev telemetry.Event) {
	fmt.Fprintf(s.h, "%d %d %d %d %d %d %d %d %s\n", ev.Cycle, ev.Kind, ev.Packet,
		ev.Board, ev.Wavelength, ev.Dest, ev.From, ev.To, ev.Label)
	s.n++
}

func (s *hashSink) sum() string { return hex.EncodeToString(s.h.Sum(nil))[:16] }

// resultDigest is the SHA-256 of the Result's JSON form (the bytes the
// service caches and the CLI's -json prints).
func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:16]
}

// TestWideShapeDigest pins the Result and the event stream of the two
// shapes whose routers and per-board sets span more than one 64-bit
// word: 66×2 (67-port IBI, 65 transmitters and rx sources per board) and
// 64×8 on the scale-512 schedule (71 ports). No other test runs above 32
// boards. The constants were generated at the commit before the active
// sets replaced the per-cycle scans, so they pin the scan's visit order.
func TestWideShapeDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("two 60+-board runs at two worker counts")
	}
	wide := DefaultConfig(PB)
	wide.Boards, wide.NodesPerBoard = 66, 2
	wide.Load = 0.6
	wide.Window = 500
	wide.WarmupCycles, wide.MeasureCycles = 500, 1500
	wide.Seed = 5
	scale := DefaultConfig(PB)
	scale.Boards, scale.NodesPerBoard = 64, 8
	scale.WarmupCycles, scale.MeasureCycles = 1000, 2000
	scale.Seed = 1
	cases := []struct {
		name           string
		cfg            Config
		result, events string
		nEvents        int
	}{
		{"66x2", wide, "c82669415e18eb70", "30be0f187c222fc9", 44640},
		{"64x8", scale, "12b39a1d5933a617", "de0adfc20b94e407", 165358},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			tc, workers := tc, workers
			t.Run(fmt.Sprintf("%s/w%d", tc.name, workers), func(t *testing.T) {
				t.Parallel()
				cfg := tc.cfg
				cfg.Workers = workers
				s, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sink := newHashSink()
				s.AttachSink(sink)
				res := s.Run()
				if got := resultDigest(t, res); got != tc.result {
					t.Errorf("Result digest %s, pinned %s\n%+v", got, tc.result, res)
				}
				if got := sink.sum(); got != tc.events || sink.n != tc.nEvents {
					t.Errorf("event stream %s (%d events), pinned %s (%d)", got, sink.n, tc.events, tc.nEvents)
				}
			})
		}
	}
}
