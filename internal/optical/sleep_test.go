package optical

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// sleepPair drives a fabric whose lasers sleep through serialisations
// next to a twin whose sleepers are all woken before every cycle: the
// twin ticks every active laser every cycle, the reference a sleeper
// must reproduce.
type sleepPair struct {
	a, b   *Fabric
	ea, eb *sim.Engine
}

func newSleepPair(t *testing.T) *sleepPair {
	p := &sleepPair{}
	p.a, p.ea = newTestFabric(t, 4)
	p.b, p.eb = newTestFabric(t, 4)
	p.both(func(f *Fabric) { f.EnableMetering(true) })
	return p
}

func (p *sleepPair) both(fn func(f *Fabric)) { fn(p.a); fn(p.b) }

func (p *sleepPair) run(t *testing.T, from, to uint64) {
	t.Helper()
	for now := from; now < to; now++ {
		p.ea.RunUntil(now)
		p.eb.RunUntil(now)
		for s := range p.b.boards {
			for _, l := range p.b.boards[s].active {
				p.b.wake(l)
			}
		}
		p.a.Tick(now)
		p.b.Tick(now)
		if err := p.a.CheckIndex(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
	}
}

// laserStats is what a laser's ticks account.
type laserStats struct {
	busy, statsAt, sent uint64
	link, buf           stats.Window
}

func statsOf(l *Laser) laserStats {
	return laserStats{l.busyCycles, l.statsAt, l.sentPackets, l.LinkWin, l.BufWin}
}

// same fails unless every materialised laser and the meter agree.
func (p *sleepPair) same(t *testing.T, now uint64) {
	t.Helper()
	p.both(func(f *Fabric) { flushStats(f, now) })
	for i, la := range p.a.heads {
		for lb := p.b.heads[i]; la != nil || lb != nil; la, lb = la.next, lb.next {
			if la == nil || lb == nil || statsOf(la) != statsOf(lb) {
				t.Fatalf("cycle %d: laser %+v, per-cycle twin %+v", now, la, lb)
			}
		}
	}
	sa, da, ca := p.a.meter.Integrals()
	sb, db, cb := p.b.meter.Integrals()
	if sa != sb || da != db || ca != cb {
		t.Fatalf("cycle %d: meter (%v, %v, %d), per-cycle twin (%v, %v, %d)", now, sa, da, ca, sb, db, cb)
	}
}

// TestSleepWakesAndSettles puts laser (1, λ, 0) to sleep serialising a
// packet (41 cycles from cycle 0) and, mid-sleep, changes its state in
// each way one can: every change must wake it first, settling the ticks
// it skipped, or its statistics and meter samples drift from the
// per-cycle twin's. TakeWindows, flushStats and BoardStats must settle a
// sleeper without waking it.
func TestSleepWakesAndSettles(t *testing.T) {
	w := topoWavelength(t)
	for _, tc := range []struct {
		name    string
		packets int
		changes map[uint64]func(f *Fabric, now uint64)
	}{
		{"SetLevel", 2, map[uint64]func(*Fabric, uint64){
			20: func(f *Fabric, now uint64) { f.Laser(1, w, 0).SetLevel(2, now, 65) }}},
		{"enqueue", 2, map[uint64]func(*Fabric, uint64){
			20: func(f *Fabric, now uint64) {
				// The tail matures now; the transmitters' phase of the
				// cycle queues the packet (Tick's own call then finds
				// nothing to do).
				sendPacket(f.Transmitter(1, w), mkPkt(3, 1, 0), 0, now)
				f.Transmitter(1, w).tick(now)
			}}},
		{"FailLaser", 2, map[uint64]func(*Fabric, uint64){
			20: func(f *Fabric, now uint64) { f.FailLaser(1, w, 0, true, now) }}},
		{"Reassign old holder", 1, map[uint64]func(*Fabric, uint64){
			20: func(f *Fabric, now uint64) { mustReassign(t, f, 0, w, 2, now) }}},
		{"Reassign new holder", 1, map[uint64]func(*Fabric, uint64){
			10: func(f *Fabric, now uint64) { mustReassign(t, f, 0, w, 2, now) },
			20: func(f *Fabric, now uint64) { mustReassign(t, f, 0, w, 1, now) }}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newSleepPair(t)
			p.both(func(f *Fabric) {
				for i := range tc.packets {
					sendPacket(f.Transmitter(1, w), mkPkt(i+1, 1, 0), i, 0)
				}
			})
			from := uint64(0)
			for _, at := range []uint64{10, 20} {
				fn := tc.changes[at]
				if fn == nil {
					continue
				}
				p.run(t, from, at)
				from = at
				la, lb := p.a.Laser(1, w, 0), p.b.Laser(1, w, 0)
				if !la.asleep {
					t.Fatalf("cycle %d: laser awake before the change; nothing to test", at)
				}
				p.ea.RunUntil(at)
				p.eb.RunUntil(at)
				fn(p.a, at)
				fn(p.b, at)
				if la.asleep || statsOf(la) != statsOf(lb) {
					t.Fatalf("cycle %d: after the change asleep %v, stats %+v, per-cycle twin %+v", at, la.asleep, statsOf(la), statsOf(lb))
				}
			}
			p.run(t, from, 200)
			p.same(t, 200)
		})
	}

	t.Run("settle", func(t *testing.T) {
		p := newSleepPair(t)
		p.both(func(f *Fabric) {
			sendPacket(f.Transmitter(1, w), mkPkt(1, 1, 0), 0, 0)
			sendPacket(f.Transmitter(1, w), mkPkt(2, 1, 0), 1, 0)
		})
		p.run(t, 0, 20)
		la := p.a.Laser(1, w, 0)
		if wa, wb := p.a.TakeWindows(1, 20, nil), p.b.TakeWindows(1, 20, nil); !reflect.DeepEqual(wa, wb) {
			t.Errorf("TakeWindows: %+v, per-cycle twin %+v", wa, wb)
		}
		p.run(t, 20, 30)
		var sa, sb BoardStats
		p.a.BoardStats(1, &sa, nil)
		p.b.BoardStats(1, &sb, nil)
		if sa != sb {
			t.Errorf("BoardStats: %+v, per-cycle twin %+v", sa, sb)
		}
		p.run(t, 30, 35)
		p.same(t, 35) // flushStats
		if !la.asleep {
			t.Fatal("settling woke the laser")
		}
		p.run(t, 35, 200)
		p.same(t, 200)
	})
}

// topoWavelength returns the static wavelength from board 1 to board 0
// of newTestFabric's topology.
func topoWavelength(t *testing.T) int {
	f, _ := newTestFabric(t, 4)
	return f.Topology().Wavelength(1, 0)
}

func mustReassign(t *testing.T, f *Fabric, d, w, holder int, now uint64) {
	t.Helper()
	if err := f.Reassign(d, w, holder, now); err != nil {
		t.Fatal(err)
	}
}
