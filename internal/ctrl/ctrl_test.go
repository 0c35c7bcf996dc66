package ctrl

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

type rig struct {
	top *topology.Topology
	eng *sim.Engine
	fab *optical.Fabric
	sys *System
	id  int
}

func newRig(t *testing.T, boards int, cfg Config) *rig {
	t.Helper()
	top := topology.MustNewSRS(boards, 4)
	eng := sim.NewEngine()
	fab, err := optical.NewFabric(top, eng, optical.Config{
		CycleNS: 2.5, PropCycles: 8, RelockCycles: 65,
		QueueCap: 16, VCs: 2, FlitsPerPacket: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(top, fab, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{top: top, eng: eng, fab: fab, sys: sys}
}

// run advances the rig; pumps are per-cycle callbacks (traffic drivers).
func (r *rig) run(from, to uint64, pumps ...func(now uint64)) {
	for now := from; now < to; now++ {
		r.eng.RunUntil(now)
		for _, p := range pumps {
			p(now)
		}
		r.fab.Tick(now)
	}
	r.eng.RunUntil(to)
}

// pumpFlow keeps packets flowing s→d through transmitter w whenever the
// reassembly buffer is free.
func (r *rig) pumpFlow(s, w, d int) func(now uint64) {
	tx := r.fab.Transmitter(s, w)
	return func(now uint64) {
		if tx.PendingFlits() != 0 {
			return
		}
		if r.fab.Laser(s, w, d).QueueLen() >= r.fab.Config().QueueCap {
			return
		}
		r.id++
		p := &flit.Packet{ID: flit.PacketID(r.id), Size: 64, FlitBytes: 8, SrcBoard: s, DstBoard: d}
		for _, fl := range flit.Explode(p) {
			fl.VC = 0
			tx.PutFlit(fl, now)
		}
	}
}

// pumpTrickle injects one packet every interval cycles.
func (r *rig) pumpTrickle(s, w, d int, interval uint64) func(now uint64) {
	tx := r.fab.Transmitter(s, w)
	return func(now uint64) {
		if now%interval != 0 || tx.PendingFlits() != 0 {
			return
		}
		if r.fab.Laser(s, w, d).QueueLen() >= r.fab.Config().QueueCap {
			return
		}
		r.id++
		p := &flit.Packet{ID: flit.PacketID(r.id), Size: 64, FlitBytes: 8, SrcBoard: s, DstBoard: d}
		for _, fl := range flit.Explode(p) {
			fl.VC = 0
			tx.PutFlit(fl, now)
		}
	}
}

func dbrConfig(window uint64) Config {
	cfg := DefaultConfig(false, true) // NP-B: bandwidth only
	cfg.Window = window
	return cfg
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Window = 0 },
		func(c *Config) { c.Thresholds.LMin = 0.95 },
		func(c *Config) { c.Thresholds.BMin = 0.5 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(true, true)
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d: config validated", i)
		}
	}
}

func TestPaperThresholds(t *testing.T) {
	pb := PaperPB()
	if pb.LMax != 0.9 || pb.LMin != 0.7 || pb.BMax != 0.3 || pb.BMin != 0.0 {
		t.Errorf("PaperPB = %+v", pb)
	}
	pnb := PaperPNB()
	if pnb.LMax != 0.7 || pnb.BMax != 0.0 {
		t.Errorf("PaperPNB = %+v", pnb)
	}
	if w := DefaultConfig(true, true).Window; w != 2000 {
		t.Errorf("default R_w = %d, want 2000 (paper Sec 3.1)", w)
	}
}

func TestNPNBDoesNothing(t *testing.T) {
	r := newRig(t, 4, Config{
		Window: 200, PowerAware: false, BandwidthReconfig: false,
		Thresholds: PaperPB(),
	})
	r.run(0, 1000)
	ctr := r.sys.Counters()
	if ctr.PowerCycles != 0 || ctr.BandwidthCyles != 0 || ctr.MessagesSent != 0 {
		t.Fatalf("NP-NB ran reconfiguration: %+v", ctr)
	}
	// Windows still tick (statistics reset), levels untouched.
	if ctr.Windows == 0 {
		t.Fatal("RC processes never woke")
	}
	for d := 0; d < 4; d++ {
		for w := 1; w < 4; w++ {
			owner := r.top.StaticOwner(d, w)
			if r.fab.Laser(owner, w, d).Level() != 3 {
				t.Fatal("NP-NB changed a laser level")
			}
		}
	}
}

func TestLockStepStageOrder(t *testing.T) {
	// Reproduces Fig. 4: the five DBR stages execute in order on every
	// board, aligned in lock-step across boards.
	r := newRig(t, 4, dbrConfig(300))
	rec := telemetry.NewRecorder(1 << 10)
	r.sys.SetSink(rec)
	r.run(0, 900) // window 2 (DBR) fires at cycle 600
	want := []string{"link-request", "board-request", "reconfigure", "board-response", "link-response", "complete"}
	perBoard := map[int][]telemetry.Event{}
	for _, ev := range rec.Events() {
		perBoard[ev.Board] = append(perBoard[ev.Board], ev)
	}
	if len(perBoard) != 4 {
		t.Fatalf("stages recorded for %d boards, want 4", len(perBoard))
	}
	for b, evs := range perBoard {
		if len(evs) != len(want) {
			t.Fatalf("board %d recorded %d stages (%v), want %d", b, len(evs), evs, len(want))
		}
		for i, ev := range evs {
			if ev.Kind != telemetry.StageEnter || ev.Label != want[i] {
				t.Fatalf("board %d stage %d = %v %q, want %q", b, i, ev.Kind, ev.Label, want[i])
			}
			if i > 0 && ev.Cycle < evs[i-1].Cycle {
				t.Fatalf("board %d stage %q ran before %q", b, ev.Label, want[i-1])
			}
		}
	}
	// Lock-step alignment: every board enters each stage at the same cycle.
	for i := range want {
		c0 := perBoard[0][i].Cycle
		for b := 1; b < 4; b++ {
			if perBoard[b][i].Cycle != c0 {
				t.Fatalf("stage %q misaligned: board 0 at %d, board %d at %d", want[i], c0, b, perBoard[b][i].Cycle)
			}
		}
	}
	// The exchange costs real cycles on the ring.
	if ctr := r.sys.Counters(); ctr.MessagesSent == 0 {
		t.Fatal("no ring messages sent")
	}
}

// dropRing is a RingFault that loses every control-ring message.
type dropRing struct{}

func (dropRing) FilterRingMsg(from, to int, now uint64) (bool, uint64) { return true, 0 }

func TestRingFaultBoundsReceives(t *testing.T) {
	// With every ring message lost, a DBR circulation can only end by
	// timing out: an attached ring fault must bound the receives, so the
	// RCs retry and then abandon the cycle instead of blocking forever.
	cfg := DefaultConfig(true, true)
	r := newRig(t, 4, cfg)
	r.sys.SetRingFault(dropRing{})
	r.run(0, 4*cfg.Window)
	ctr := r.sys.Counters()
	if ctr.AbandonedCycles == 0 || ctr.Timeouts == 0 {
		t.Fatalf("no circulation timed out and was abandoned: %+v", ctr)
	}
}

func TestDBRReallocatesIdleChannelsToCongestedFlow(t *testing.T) {
	// Complement-style hot flow 0→2 with everything else idle: the idle
	// incoming channels of board 2 must migrate to board 0.
	r := newRig(t, 4, dbrConfig(300))
	wStatic := r.top.Wavelength(0, 2)
	r.run(0, 700, r.pumpFlow(0, wStatic, 2))
	held := r.fab.AppendHoldersToward(nil, 0, 2)
	if len(held) < 2 {
		t.Fatalf("holders 0→2 = %v after DBR, want >= 2 channels", held)
	}
	if err := r.fab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ctr := r.sys.Counters()
	if ctr.Reassignments == 0 {
		t.Fatal("no reassignments recorded")
	}
	// Uninvolved flows keep their channels into other boards.
	if got := r.fab.AppendHoldersToward(nil, 1, 0); len(got) != 1 {
		t.Fatalf("flow 1→0 channels = %v, want untouched single channel", got)
	}
}

func TestDBRLeavesBalancedTrafficAlone(t *testing.T) {
	// All incoming channels of board 2 moderately used: nothing to move.
	r := newRig(t, 4, dbrConfig(300))
	var pumps []func(uint64)
	for s := 0; s < 4; s++ {
		if s == 2 {
			continue
		}
		pumps = append(pumps, r.pumpTrickle(s, r.top.Wavelength(s, 2), 2, 100))
	}
	r.run(0, 700, pumps...)
	for s := 0; s < 4; s++ {
		if s == 2 {
			continue
		}
		if got := r.fab.AppendHoldersToward(nil, s, 2); len(got) != 1 {
			t.Fatalf("balanced traffic: flow %d→2 holds %v, want its single static channel", s, got)
		}
	}
	if ctr := r.sys.Counters(); ctr.Reassignments != 0 {
		t.Fatalf("balanced traffic triggered %d reassignments", ctr.Reassignments)
	}
}

func TestDBRReclaimReturnsChannelToOwner(t *testing.T) {
	r := newRig(t, 4, dbrConfig(300))
	wStatic := r.top.Wavelength(0, 2)
	// Phase 1: hot flow 0→2 grabs extra channels.
	pump0 := r.pumpFlow(0, wStatic, 2)
	r.run(0, 700, pump0)
	if len(r.fab.AppendHoldersToward(nil, 0, 2)) < 2 {
		t.Fatal("setup: no channels acquired")
	}
	// Phase 2: flow 0→2 goes quiet; board 1's flow to 2 becomes hot. Its
	// static wavelength is dark (lent to 0), so packets park on the dark
	// laser until the owner reclaims it.
	w1 := r.top.Wavelength(1, 2)
	pump1 := r.pumpFlow(1, w1, 2)
	r.run(700, 2000, pump1)
	if got := r.fab.Channel(2, w1).Holder(); got != 1 {
		t.Fatalf("channel (2,λ%d) holder = %d, want reclaimed by owner 1", w1, got)
	}
	if ctr := r.sys.Counters(); ctr.Reclaims == 0 {
		t.Fatal("no reclaims recorded")
	}
	if err := r.fab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDPMShutsDownIdleLasers(t *testing.T) {
	cfg := DefaultConfig(true, false) // P-NB
	cfg.Window = 300
	r := newRig(t, 4, cfg)
	r.run(0, 400) // window 1 (power) at 300
	// All lit lasers idle → all shut down.
	for d := 0; d < 4; d++ {
		for w := 1; w < 4; w++ {
			owner := r.top.StaticOwner(d, w)
			if lvl := r.fab.Laser(owner, w, d).Level(); lvl != 0 {
				t.Fatalf("idle laser (%d,λ%d→%d) level = %v, want off", owner, w, d, lvl)
			}
		}
	}
	if ctr := r.sys.Counters(); ctr.Shutdowns != 12 {
		t.Fatalf("shutdowns = %d, want 12 (all lit lasers)", ctr.Shutdowns)
	}
}

func TestDPMWakeOnDemand(t *testing.T) {
	cfg := DefaultConfig(true, false)
	cfg.Window = 300
	r := newRig(t, 4, cfg)
	r.run(0, 400) // lasers shut down at 300
	w := r.top.Wavelength(1, 0)
	laser := r.fab.Laser(1, w, 0)
	if laser.Level() != 0 {
		t.Fatal("setup: laser not off")
	}
	// Traffic arrives: the laser must wake (to the ladder bottom) and
	// deliver.
	delivered := false
	r.fab.SetDeliver(0, w, func(p *flit.Packet, now uint64) { delivered = true })
	r.run(400, 800, r.pumpTrickle(1, w, 0, 200))
	if laser.Level() == 0 {
		t.Fatal("laser never woke")
	}
	if !delivered {
		t.Fatal("woken laser never delivered")
	}
	if r.fab.Wakes() == 0 {
		t.Fatal("wake counter not incremented")
	}
}

func TestDPMScalesDownUnderLightLoad(t *testing.T) {
	cfg := DefaultConfig(true, false)
	cfg.Window = 1000
	r := newRig(t, 4, cfg)
	w := r.top.Wavelength(1, 0)
	r.fab.SetDeliver(0, w, func(p *flit.Packet, now uint64) {})
	// ~5 packets per 1000 cycles at High: Link_util ≈ 0.2 < L_min → scale
	// down (not off: link not idle).
	r.run(0, 1100, r.pumpTrickle(1, w, 0, 200))
	laser := r.fab.Laser(1, w, 0)
	if lvl := laser.Level(); lvl != 2 {
		t.Fatalf("lightly loaded laser level = %v, want 2 (one step down)", lvl)
	}
	if ctr := r.sys.Counters(); ctr.LevelDowns == 0 {
		t.Fatal("no level-down transitions recorded")
	}
}

func TestDPMScalesUpUnderCongestion(t *testing.T) {
	cfg := DefaultConfig(true, false) // P-NB thresholds: LMax 0.7, BMax 0
	cfg.Window = 1000
	r := newRig(t, 4, cfg)
	w := r.top.Wavelength(1, 0)
	r.fab.SetDeliver(0, w, func(p *flit.Packet, now uint64) {})
	laser := r.fab.Laser(1, w, 0)
	laser.SetLevel(1, 0, 0) // start slow with saturating traffic
	r.run(0, 1100, r.pumpFlow(1, w, 0))
	if lvl := laser.Level(); lvl < 2 {
		t.Fatalf("congested laser level = %v, want scaled up", lvl)
	}
	if ctr := r.sys.Counters(); ctr.LevelUps == 0 {
		t.Fatal("no level-up transitions recorded")
	}
}

func TestDPMKeepsWellUtilizedLevel(t *testing.T) {
	cfg := DefaultConfig(true, false)
	cfg.Thresholds = Thresholds{LMin: 0.2, LMax: 0.95, BMin: 0, BMax: 0.5}
	cfg.Window = 1000
	r := newRig(t, 4, cfg)
	w := r.top.Wavelength(1, 0)
	r.fab.SetDeliver(0, w, func(p *flit.Packet, now uint64) {})
	// one packet per 100 cycles: util ≈ 0.41, between LMin and LMax.
	r.run(0, 2300, r.pumpTrickle(1, w, 0, 100))
	if lvl := r.fab.Laser(1, w, 0).Level(); lvl != 3 {
		t.Fatalf("well-utilized laser level = %v, want unchanged top", lvl)
	}
}

func TestOddEvenWindowAlternation(t *testing.T) {
	cfg := DefaultConfig(true, true) // P-B: both cycles
	cfg.Window = 300
	r := newRig(t, 4, cfg)
	r.run(0, 1300) // windows 1..4
	ctr := r.sys.Counters()
	// Windows 1,3 → power; windows 2,4 → bandwidth; 4 boards each.
	if ctr.PowerCycles != 8 {
		t.Fatalf("power cycles = %d, want 8", ctr.PowerCycles)
	}
	if ctr.BandwidthCyles != 8 {
		t.Fatalf("bandwidth cycles = %d, want 8", ctr.BandwidthCyles)
	}
}

func TestInvariantsUnderReconfigurationStorm(t *testing.T) {
	// Shifting hot flows across many windows: structural invariants hold
	// throughout and every channel keeps exactly one holder.
	cfg := DefaultConfig(true, true)
	cfg.Window = 250
	r := newRig(t, 4, cfg)
	for d := 0; d < 4; d++ {
		for w := 1; w < 4; w++ {
			r.fab.SetDeliver(d, w, func(p *flit.Packet, now uint64) {})
		}
	}
	hot := 0
	pump := func(now uint64) {
		if now%1500 == 0 {
			hot = (hot + 1) % 4
		}
		s := hot
		d := (hot + 2) % 4
		w := r.top.Wavelength(s, d)
		r.pumpFlow(s, w, d)(now)
	}
	for seg := uint64(0); seg < 12; seg++ {
		r.run(seg*500, (seg+1)*500, pump)
		if err := r.fab.CheckInvariants(); err != nil {
			t.Fatalf("after %d cycles: %v", (seg+1)*500, err)
		}
	}
	// Deterministic repeat must match counters exactly.
	ctrA := r.sys.Counters()
	r2 := newRig(t, 4, cfg)
	for d := 0; d < 4; d++ {
		for w := 1; w < 4; w++ {
			r2.fab.SetDeliver(d, w, func(p *flit.Packet, now uint64) {})
		}
	}
	hot = 0
	pump2 := func(now uint64) {
		if now%1500 == 0 {
			hot = (hot + 1) % 4
		}
		s := hot
		d := (hot + 2) % 4
		w := r2.top.Wavelength(s, d)
		r2.pumpFlow(s, w, d)(now)
	}
	r2.run(0, 6000, pump2)
	if ctrB := r2.sys.Counters(); ctrA != ctrB {
		t.Fatalf("nondeterministic protocol: %+v vs %+v", ctrA, ctrB)
	}
}

func TestMaxHoldCapsAcquisition(t *testing.T) {
	// With MaxHold 2, a hot flow may hold at most 2 channels toward its
	// destination no matter how many are idle.
	cfg := dbrConfig(300)
	cfg.MaxHold = 2
	r := newRig(t, 4, cfg)
	wStatic := r.top.Wavelength(0, 2)
	r.run(0, 2500, r.pumpFlow(0, wStatic, 2))
	held := r.fab.AppendHoldersToward(nil, 0, 2)
	if len(held) != 2 {
		t.Fatalf("holders 0→2 = %v, want exactly MaxHold=2", held)
	}
	if err := r.fab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Acquired channels serve congested flows, so an acquired laser starts
// at the ladder top.
func TestAcquiredLaserStartsAtAcquireLevel(t *testing.T) {
	r := newRig(t, 4, dbrConfig(300))
	top := r.fab.Config().Ladder.Top()
	wStatic := r.top.Wavelength(0, 2)
	r.run(0, 700, r.pumpFlow(0, wStatic, 2))
	held := r.fab.AppendHoldersToward(nil, 0, 2)
	if len(held) < 2 {
		t.Fatal("setup: nothing acquired")
	}
	for _, w := range held {
		if w == wStatic {
			continue
		}
		if lvl := r.fab.Laser(0, w, 2).Level(); lvl != top {
			t.Fatalf("acquired laser (0,λ%d→2) level = %d, want the ladder top %d", w, lvl, top)
		}
	}
}

func TestPNBNeverReassigns(t *testing.T) {
	cfg := DefaultConfig(true, false) // P-NB
	cfg.Window = 300
	r := newRig(t, 4, cfg)
	wStatic := r.top.Wavelength(0, 2)
	r.run(0, 1500, r.pumpFlow(0, wStatic, 2))
	if got := r.fab.AppendHoldersToward(nil, 0, 2); len(got) != 1 {
		t.Fatalf("P-NB acquired channels: %v", got)
	}
	if ctr := r.sys.Counters(); ctr.Reassignments != 0 || ctr.BandwidthCyles != 0 {
		t.Fatalf("P-NB ran DBR: %+v", ctr)
	}
}

func TestFailedMovesCountedWhenHolderBusy(t *testing.T) {
	// Force a classification/apply race: the holder looks idle at the
	// snapshot but accumulates packets before Link Response applies. The
	// reassignment must be skipped and counted, never dropping packets.
	cfg := dbrConfig(400)
	r := newRig(t, 4, cfg)
	wTarget := r.top.Wavelength(1, 2) // flow 1→2's static channel
	hot := r.pumpFlow(0, r.top.Wavelength(0, 2), 2)
	// Start pumping flow 1→2 just before the DBR window at 800 so its
	// queue fills between snapshot and apply.
	late := func(now uint64) {
		if now >= 799 {
			r.pumpFlow(1, wTarget, 2)(now)
		}
	}
	r.run(0, 2000, hot, late)
	if err := r.fab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Whether or not the race fired in this exact schedule, flow 1→2 must
	// still own or regain a channel and its packets must be drainable.
	if got := r.fab.AppendHoldersToward(nil, 1, 2); len(got) == 0 {
		t.Fatal("flow 1→2 left with no channel while actively sending")
	}
}

func TestProtocolOverheadMatchesAnalyticDuration(t *testing.T) {
	// One DBR exchange on B=4 with LCHop=2, RingHop=4, Compute=4 costs:
	// Link Request 4·2 + Board Request ring 4·4 + Reconfigure 4 +
	// Board Response ring 4·4 + Link Response 4·2 = 52 cycles per RC.
	r := newRig(t, 4, dbrConfig(300))
	r.run(0, 700) // exactly one DBR window (k=2 at cycle 600)
	ctr := r.sys.Counters()
	if ctr.BandwidthCyles != 4 {
		t.Fatalf("bandwidth cycles = %d, want 4 (one per board)", ctr.BandwidthCyles)
	}
	perRC := ctr.BandwidthCycleBusy / ctr.BandwidthCyles
	if perRC != 52 {
		t.Fatalf("DBR exchange duration = %d cycles per RC, want 52", perRC)
	}
	// Overhead is small relative to the paper's R_w = 2000: one exchange
	// occupies well under 5% of a window.
	if perRC*20 > 2000 {
		t.Fatalf("control overhead %d not << the paper's R_w of 2000", perRC)
	}
}
