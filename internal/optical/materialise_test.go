package optical

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// materialised counts the fabric's materialised lasers.
func materialised(f *Fabric) int {
	n := 0
	for s := range f.boards {
		n += f.boards[s].used
	}
	return n
}

func TestMaterialiseOnFirstHold(t *testing.T) {
	f, _ := newTestFabric(t, 8)
	if got := materialised(f); got != 8*7 {
		t.Fatalf("NewFabric materialised %d lasers, want the 56 static owners", got)
	}
	// Channel (0, λ1) is statically driven by board 1; board 3's laser for
	// it is dark.
	if f.Laser(3, 1, 0) != nil {
		t.Fatal("dark laser materialised at construction")
	}
	if err := f.Reassign(0, 1, 3, 100); err != nil {
		t.Fatal(err)
	}
	if got := materialised(f); got != 8*7+1 {
		t.Fatalf("%d lasers after one reassignment, want 57", got)
	}
	if l := f.Laser(3, 1, 0); l == nil || l.Transitions() != 1 {
		t.Fatalf("acquiring laser = %+v, want materialised with one relock", l)
	}
	// Handing the channel back materialises nothing: both lasers exist.
	if err := f.Reassign(0, 1, 1, 300); err != nil {
		t.Fatal(err)
	}
	if got := materialised(f); got != 8*7+1 {
		t.Fatalf("%d lasers after the reclaim, want 57", got)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMidWindowMaterialisationStats pins the window accounting of a laser
// materialised mid-window: it must count from its board's last window
// start, as a laser present all along would, not from its first use.
func TestMidWindowMaterialisationStats(t *testing.T) {
	f, eng := newTestFabric(t, 4)
	qcap := uint64(f.Config().QueueCap)
	run(f, eng, 0, 100)
	f.TakeWindows(3, 100, nil) // board 3 starts a window at 100; board 1 never does
	run(f, eng, 100, 150)
	// Channels (0, λ2) and (2, λ2) are statically driven by boards 2 and
	// 0; hand them to boards 3 and 1, whose lasers for them are dark.
	if err := f.Reassign(0, 2, 3, 150); err != nil {
		t.Fatal(err)
	}
	if err := f.Reassign(2, 2, 1, 150); err != nil {
		t.Fatal(err)
	}
	sendPacket(f.Transmitter(3, 2), mkPkt(1, 3, 0), 0, 200)
	run(f, eng, 150, 400)
	flushStats(f, 400)
	for _, c := range []struct {
		s, w, d int
		from    uint64
	}{{3, 2, 0, 100}, {1, 2, 2, 0}} {
		l := f.Laser(c.s, c.w, c.d)
		if got, want := l.LinkWin.Total(), 400-c.from; got != want {
			t.Errorf("laser (%d,λ%d→%d) LinkWin covers %d cycles, want %d", c.s, c.w, c.d, got, want)
		}
		if got, want := l.BufWin.Total(), (400-c.from)*qcap; got != want {
			t.Errorf("laser (%d,λ%d→%d) BufWin total %d, want %d", c.s, c.w, c.d, got, want)
		}
	}
	// The window statistics also match the static laser's toward the same
	// board, which existed from the start.
	sent, static := f.Laser(3, 2, 0), f.Laser(3, 3, 0)
	if sent.Sent() != 1 || sent.LinkWin.Utilization() != float64(sent.busyCycles)/300 {
		t.Errorf("sent %d, LinkWin utilization %v, want 1 packet and %d/300 busy", sent.Sent(), sent.LinkWin.Utilization(), sent.busyCycles)
	}
	if static.LinkWin.Total() != sent.LinkWin.Total() || static.BufWin.Total() != sent.BufWin.Total() {
		t.Errorf("windows of (3,λ2→0) and the static (3,λ3→0) cover different spans")
	}
}

// TestSupplyBoundCountsPopulatedLasers checks the supply ceiling against
// the laser arrays counted port by port.
func TestSupplyBoundCountsPopulatedLasers(t *testing.T) {
	for b := 2; b <= 9; b++ {
		for r := 0; r <= 4; r++ {
			cfg := testConfig()
			cfg.PortRadius = r
			top := topology.MustNewSRS(b, 2)
			f, err := NewFabric(top, sim.NewEngine(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for s := 0; s < b; s++ {
				for d0 := 0; d0 < b; d0++ {
					if d0 == s {
						continue
					}
					for d := 0; d < b; d++ {
						dist := min((d-d0+b)%b, (d0-d+b)%b)
						if d != s && (r == 0 || dist <= r) {
							n++
							if !f.CanHold(s, top.Wavelength(s, d0), d) {
								t.Fatalf("%d boards, radius %d: CanHold(%d,λ%d,%d) false for a populated port", b, r, s, top.Wavelength(s, d0), d)
							}
						}
					}
				}
			}
			if r == 0 && n != b*(b-1)*(b-1) {
				t.Fatalf("%d boards: %d lasers in full arrays, want B(B-1)²", b, n)
			}
			if got, want := f.SupplyBoundMW(), float64(n)*f.Config().Ladder.MW(f.Config().Ladder.Top()); got != want {
				t.Errorf("%d boards, radius %d: SupplyBoundMW %v, want %v", b, r, got, want)
			}
		}
	}
}
