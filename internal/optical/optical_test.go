package optical

import (
	"testing"
	"testing/quick"

	"repro/internal/flit"
	"repro/internal/sim"
	"repro/internal/topology"
)

func testConfig() Config {
	return Config{
		CycleNS:        2.5,
		PropCycles:     8,
		RelockCycles:   65,
		QueueCap:       16,
		VCs:            2,
		FlitsPerPacket: 8,
	}
}

func newTestFabric(t *testing.T, boards int) (*Fabric, *sim.Engine) {
	t.Helper()
	top := topology.MustNewSRS(boards, 4)
	eng := sim.NewEngine()
	f, err := NewFabric(top, eng, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return f, eng
}

// run drives the fabric and engine together for n cycles.
func run(f *Fabric, eng *sim.Engine, from, to uint64) {
	for now := from; now < to; now++ {
		eng.RunUntil(now)
		f.Tick(now)
	}
}

func mkPkt(id, srcBoard, dstBoard int) *flit.Packet {
	return &flit.Packet{
		ID: flit.PacketID(id), Size: 64, FlitBytes: 8,
		SrcBoard: srcBoard, DstBoard: dstBoard,
	}
}

// sendPacket pushes a whole packet's flits into a transmitter.
func sendPacket(tx *Transmitter, p *flit.Packet, vc int, at uint64) {
	for _, fl := range flit.Explode(p) {
		fl.VC = vc
		tx.PutFlit(fl, at)
	}
}

func TestStaticHoldersMatchRWA(t *testing.T) {
	f, _ := newTestFabric(t, 8)
	top := f.Topology()
	for d := 0; d < 8; d++ {
		for w := 1; w < 8; w++ {
			want := top.StaticOwner(d, w)
			if got := f.Channel(d, w).Holder(); got != want {
				t.Errorf("channel (%d,λ%d) holder = %d, want %d", d, w, got, want)
			}
		}
	}
	// Static route candidates: exactly the RWA wavelength per pair.
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if s == d {
				continue
			}
			ws := f.AppendHoldersToward(nil, s, d)
			if len(ws) != 1 || ws[0] != top.Wavelength(s, d) {
				t.Errorf("holders %d→%d = %v, want [%d]", s, d, ws, top.Wavelength(s, d))
			}
		}
	}
}

func TestPacketTransmissionEndToEnd(t *testing.T) {
	f, eng := newTestFabric(t, 4)
	top := f.Topology()
	w := top.Wavelength(1, 0) // board 1 -> board 0 on λ1
	var gotPkt *flit.Packet
	var gotAt uint64
	deliveries := 0
	f.SetDeliver(0, w, func(p *flit.Packet, now uint64) { gotPkt, gotAt = p, now; deliveries++ })

	p := mkPkt(1, 1, 0)
	tx := f.Transmitter(1, w)
	sendPacket(tx, p, 0, 5) // flits fully arrived at cycle 5
	run(f, eng, 0, 200)

	if gotPkt != p {
		t.Fatal("packet not delivered")
	}
	// Tick 5 moves the packet into the laser queue and starts serialization
	// in the same cycle (41 cycles at 5 Gbps) + 8 cycles propagation:
	// arrival 5+41+8 = 54.
	if gotAt != 54 {
		t.Fatalf("delivered at %d, want 54", gotAt)
	}
	if deliveries != 1 {
		t.Fatalf("channel delivered %d packets, want 1", deliveries)
	}
	if !f.Quiescent(200) {
		t.Fatal("fabric not quiescent after drain")
	}
}

func TestSerializationScalesWithLevel(t *testing.T) {
	for _, tc := range []struct {
		level int
		ser   uint64
	}{{3, 41}, {2, 63}, {1, 82}} {
		f, eng := newTestFabric(t, 4)
		w := f.Topology().Wavelength(1, 0)
		laser := f.Laser(1, w, 0)
		laser.level = tc.level // direct set: avoid the relock penalty
		var gotAt uint64
		f.SetDeliver(0, w, func(p *flit.Packet, now uint64) { gotAt = now })
		sendPacket(f.Transmitter(1, w), mkPkt(1, 1, 0), 0, 0)
		run(f, eng, 0, 300)
		want := tc.ser + 8 // dispatch and start at tick 0, +prop
		if gotAt != want {
			t.Errorf("level %v: delivered at %d, want %d", tc.level, gotAt, want)
		}
	}
}

func TestChannelSerializesPacketsBackToBack(t *testing.T) {
	f, eng := newTestFabric(t, 4)
	w := f.Topology().Wavelength(1, 0)
	var arrivals []uint64
	f.SetDeliver(0, w, func(p *flit.Packet, now uint64) { arrivals = append(arrivals, now) })
	tx := f.Transmitter(1, w)
	sendPacket(tx, mkPkt(1, 1, 0), 0, 0)
	sendPacket(tx, mkPkt(2, 1, 0), 1, 0)
	run(f, eng, 0, 400)
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(arrivals))
	}
	if d := arrivals[1] - arrivals[0]; d != 41 {
		t.Fatalf("second packet %d cycles after first, want 41 (back-to-back serialization)", d)
	}
}

func TestOffLaserDoesNotTransmit(t *testing.T) {
	f, eng := newTestFabric(t, 4)
	w := f.Topology().Wavelength(1, 0)
	laser := f.Laser(1, w, 0)
	laser.SetLevel(0, 0, 65)
	delivered := false
	f.SetDeliver(0, w, func(p *flit.Packet, now uint64) { delivered = true })
	sendPacket(f.Transmitter(1, w), mkPkt(1, 1, 0), 0, 0)
	run(f, eng, 0, 300)
	if delivered {
		t.Fatal("Off laser transmitted")
	}
	if laser.QueueLen() != 1 {
		t.Fatalf("queue = %d, want 1 (packet parked)", laser.QueueLen())
	}
	// Wake the laser: relock penalty, then transmission resumes.
	laser.SetLevel(1, 300, 65)
	run(f, eng, 300, 700)
	if !delivered {
		t.Fatal("woken laser never transmitted")
	}
}

func TestRelockDisablesTransmission(t *testing.T) {
	f, eng := newTestFabric(t, 4)
	w := f.Topology().Wavelength(1, 0)
	laser := f.Laser(1, w, 0)
	var gotAt uint64
	f.SetDeliver(0, w, func(p *flit.Packet, now uint64) { gotAt = now })
	// Scale down at cycle 0: disabled until 65.
	laser.SetLevel(2, 0, 65)
	if !laser.Disabled(10) {
		t.Fatal("laser not disabled during relock")
	}
	sendPacket(f.Transmitter(1, w), mkPkt(1, 1, 0), 0, 0)
	run(f, eng, 0, 400)
	// Start no earlier than 65; 63 serialization + 8 prop.
	if gotAt < 65+63+8 {
		t.Fatalf("delivered at %d, before relock completed", gotAt)
	}
	if laser.Transitions() != 1 {
		t.Fatalf("transitions = %d, want 1", laser.Transitions())
	}
}

func TestSetLevelSameLevelNoPenalty(t *testing.T) {
	f, _ := newTestFabric(t, 4)
	laser := f.Laser(1, f.Topology().Wavelength(1, 0), 0)
	laser.SetLevel(3, 100, 65) // already at the top
	if laser.Disabled(101) || laser.Transitions() != 0 {
		t.Fatal("no-op SetLevel paid a penalty")
	}
}

func TestReassignMovesHolderAndRoutes(t *testing.T) {
	f, eng := newTestFabric(t, 4)
	top := f.Topology()
	// Paper Sec 2.2 example: board 1 releases λ1 into board 2... in our RWA
	// λ1 into board 2 is owned by board 3; board 0 acquires it, doubling
	// its bandwidth to board 2 alongside its static λ2.
	wStatic := top.Wavelength(0, 2)
	wExtra := 1
	owner := top.StaticOwner(2, wExtra)
	if owner == 0 {
		t.Fatal("test setup: extra channel already owned by board 0")
	}
	if err := f.Reassign(2, wExtra, 0, 0); err != nil {
		t.Fatal(err)
	}
	ws := f.AppendHoldersToward(nil, 0, 2)
	if len(ws) != 2 {
		t.Fatalf("holders 0→2 = %v, want two wavelengths", ws)
	}
	if f.Channel(2, wExtra).Holder() != 0 {
		t.Fatal("holder not moved")
	}
	// The former owner no longer reaches board 2.
	if got := f.AppendHoldersToward(nil, owner, 2); len(got) != 0 {
		t.Fatalf("former owner still holds %v toward board 2", got)
	}
	// Both lasers at board 0 can now transmit to board 2 concurrently.
	var arrivals []uint64
	f.SetDeliver(2, wStatic, func(p *flit.Packet, now uint64) { arrivals = append(arrivals, now) })
	f.SetDeliver(2, wExtra, func(p *flit.Packet, now uint64) { arrivals = append(arrivals, now) })
	sendPacket(f.Transmitter(0, wStatic), mkPkt(1, 0, 2), 0, 70)
	sendPacket(f.Transmitter(0, wExtra), mkPkt(2, 0, 2), 0, 70)
	run(f, eng, 0, 400)
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d packets over doubled bandwidth, want 2", len(arrivals))
	}
	// Concurrent, not serialized: arrivals within one serialization window.
	if d := arrivals[1] - arrivals[0]; d > 5 {
		t.Fatalf("arrivals %v not concurrent", arrivals)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReassignRejectsBusyHolder(t *testing.T) {
	f, eng := newTestFabric(t, 4)
	top := f.Topology()
	w := top.Wavelength(1, 0)
	// Park a packet on the static holder's laser (laser disabled so the
	// queue cannot drain).
	f.Laser(1, w, 0).SetLevel(0, 0, 65)
	sendPacket(f.Transmitter(1, w), mkPkt(1, 1, 0), 0, 0)
	run(f, eng, 0, 5)
	if err := f.Reassign(0, w, 2, 5); err == nil {
		t.Fatal("Reassign with queued packets did not error")
	}
	if f.Channel(0, w).Holder() != 1 {
		t.Fatal("holder moved despite error")
	}
}

func TestReassignToDestinationRejected(t *testing.T) {
	f, _ := newTestFabric(t, 4)
	if err := f.Reassign(2, 1, 2, 0); err == nil {
		t.Fatal("assigning a channel to its own destination did not error")
	}
}

func TestReassignSameHolderNoop(t *testing.T) {
	f, _ := newTestFabric(t, 4)
	h := f.Channel(0, 1).Holder()
	if err := f.Reassign(0, 1, h, 0); err != nil {
		t.Fatal(err)
	}
	if f.Laser(h, 1, 0).Transitions() != 0 {
		t.Fatal("no-op reassign paid a transition")
	}
}

func TestBackpressureHoldsReassembly(t *testing.T) {
	cfg := testConfig()
	cfg.QueueCap = 1
	top := topology.MustNewSRS(4, 4)
	eng := sim.NewEngine()
	f, err := NewFabric(top, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := top.Wavelength(1, 0)
	// Disable the laser so the queue (capacity 1) cannot drain.
	f.Laser(1, w, 0).SetLevel(0, 0, 65)
	tx := f.Transmitter(1, w)
	sendPacket(tx, mkPkt(1, 1, 0), 0, 0)
	sendPacket(tx, mkPkt(2, 1, 0), 1, 0)
	run(f, eng, 0, 50)
	if f.Laser(1, w, 0).QueueLen() != 1 {
		t.Fatalf("laser queue = %d, want 1", f.Laser(1, w, 0).QueueLen())
	}
	if tx.PendingFlits() != 8 {
		t.Fatalf("reassembly holds %d flits, want 8 (second packet held)", tx.PendingFlits())
	}
}

// TestTxPendingWaitsForTail checks that a transmitter joins its board's
// txPending set only once a packet's tail flit has matured — not on the
// flits before it, nor on the tail's arrival — and leaves it once the
// packet is dispatched. The tail is stamped more than one wheel lap
// ahead, so its entry must survive a turn of its slot.
func TestTxPendingWaitsForTail(t *testing.T) {
	const at = 20
	f, eng := newTestFabric(t, 4)
	w := f.Topology().Wavelength(1, 0)
	tx := f.Transmitter(1, w)
	fl := flit.Explode(mkPkt(1, 1, 0))
	for _, x := range fl {
		x.VC = 0
		tx.PutFlit(x, at)
		if err := f.CheckIndex(); err != nil {
			t.Fatalf("after flit %d: %v", x.Index, err)
		}
		if f.boards[1].txPending.Has(w - 1) {
			t.Fatalf("bit up after flit %d, before the tail matures", x.Index)
		}
	}
	for now := uint64(0); now <= at; now++ {
		run(f, eng, now, now+1)
		if err := f.CheckIndex(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
		if dispatched := tx.PendingFlits() == 0; dispatched != (now == at) {
			t.Fatalf("cycle %d: %d flits still buffered", now, tx.PendingFlits())
		}
		if f.boards[1].txPending.Has(w - 1) {
			t.Fatalf("cycle %d: bit up", now)
		}
	}
}

func TestCreditsReturnOnDispatch(t *testing.T) {
	f, eng := newTestFabric(t, 4)
	w := f.Topology().Wavelength(1, 0)
	tx := f.Transmitter(1, w)
	var credits int
	tx.SetCreditSink(creditCounter{&credits})
	sendPacket(tx, mkPkt(1, 1, 0), 0, 0)
	run(f, eng, 0, 10)
	if credits != 8 {
		t.Fatalf("returned %d credits, want 8", credits)
	}
}

type creditCounter struct{ n *int }

func (c creditCounter) PutCredit(vc int, readyAt uint64) { *c.n++ }

func TestPowerMetering(t *testing.T) {
	f, eng := newTestFabric(t, 4)
	f.EnableMetering(true)
	run(f, eng, 0, 100)
	m := f.Meter()
	// 4 boards × 3 static lit lasers each at High, always idle:
	// supply = 12 × 43.03 mW, dynamic = 0.
	wantSupply := 12 * 43.03
	if got := m.AvgSupplyMW(); got < wantSupply-1e-6 || got > wantSupply+1e-6 {
		t.Fatalf("AvgSupplyMW = %v, want %v", got, wantSupply)
	}
	if m.AvgDynamicMW() != 0 {
		t.Fatalf("AvgDynamicMW = %v, want 0 (no traffic)", m.AvgDynamicMW())
	}
}

func TestPowerMeteringDynamicTracksTransmission(t *testing.T) {
	f, eng := newTestFabric(t, 4)
	w := f.Topology().Wavelength(1, 0)
	f.SetDeliver(0, w, func(p *flit.Packet, now uint64) {})
	f.EnableMetering(true)
	sendPacket(f.Transmitter(1, w), mkPkt(1, 1, 0), 0, 0)
	run(f, eng, 0, 100)
	m := f.Meter()
	// One laser busy 41 of 100 cycles at 43.03 mW.
	want := 43.03 * 41 / 100
	if got := m.AvgDynamicMW(); got < want-1e-6 || got > want+1e-6 {
		t.Fatalf("AvgDynamicMW = %v, want %v", got, want)
	}
}

func TestLinkAndBufferWindows(t *testing.T) {
	f, eng := newTestFabric(t, 4)
	w := f.Topology().Wavelength(1, 0)
	f.SetDeliver(0, w, func(p *flit.Packet, now uint64) {})
	laser := f.Laser(1, w, 0)
	// Two packets: the second waits in the laser queue while the first
	// serializes, so Buffer_util becomes nonzero.
	sendPacket(f.Transmitter(1, w), mkPkt(1, 1, 0), 0, 0)
	sendPacket(f.Transmitter(1, w), mkPkt(2, 1, 0), 1, 0)
	run(f, eng, 0, 100)
	// The laser went idle (and off the active list) at cycle 82; flush the
	// lazily accrued idle span before reading the windows.
	f.FlushStats(100)
	// Busy 82/100 cycles (two back-to-back 41-cycle serializations).
	if got := laser.LinkWin.Utilization(); got < 0.80 || got > 0.84 {
		t.Fatalf("Link_util = %v, want ~0.82", got)
	}
	if laser.BufWin.Utilization() <= 0 {
		t.Fatal("Buffer_util = 0, want > 0 (second packet queued)")
	}
	laser.LinkWin.Reset()
	laser.BufWin.Reset()
	if laser.LinkWin.Utilization() != 0 {
		t.Fatal("window reset failed")
	}
}

func TestIntraBoardPacketPanics(t *testing.T) {
	f, eng := newTestFabric(t, 4)
	tx := f.Transmitter(1, 1)
	sendPacket(tx, mkPkt(1, 1, 1), 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("intra-board packet in optical domain did not panic")
		}
	}()
	run(f, eng, 0, 5)
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.CycleNS = 0 },
		func(c *Config) { c.QueueCap = 0 },
		func(c *Config) { c.VCs = 0 },
		func(c *Config) { c.FlitsPerPacket = 0 },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d: config validated", i)
		}
	}
}

func TestPortRadiusLimitsArray(t *testing.T) {
	cfg := testConfig()
	cfg.PortRadius = 1
	top := topology.MustNewSRS(8, 4)
	eng := sim.NewEngine()
	f, err := NewFabric(top, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Transmitter (0, λ1) statically serves board 7 ((0-1) mod 8). With
	// radius 1 it also has lasers for boards 6 and 0... board 0 is self,
	// so ports exist for 6 and 7 only.
	if !f.CanHold(0, 1, 7) || !f.CanHold(0, 1, 6) {
		t.Fatal("static or adjacent laser missing at radius 1")
	}
	if f.CanHold(0, 1, 3) || f.CanHold(0, 1, 0) {
		t.Fatal("CanHold true for unpopulated port")
	}
	// Reassigning a channel to a board without the port must fail.
	if err := f.Reassign(3, 1, 0, 0); err == nil {
		t.Fatal("Reassign to unpopulated port accepted")
	}
	// Every static assignment still exists (radius 0 from itself).
	for d := 0; d < 8; d++ {
		for w := 1; w < 8; w++ {
			owner := top.StaticOwner(d, w)
			if f.Laser(owner, w, d) == nil {
				t.Fatalf("static laser (%d,λ%d→%d) missing", owner, w, d)
			}
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPortRadiusValidation(t *testing.T) {
	cfg := testConfig()
	cfg.PortRadius = -1
	if cfg.Validate() == nil {
		t.Fatal("negative PortRadius accepted")
	}
}

// Property: any sequence of valid Reassign calls preserves the fabric's
// structural invariants and the one-holder-per-channel bijection between
// AppendHoldersToward and the channel table.
func TestReassignStormProperty(t *testing.T) {
	f := func(opsRaw []uint16) bool {
		fab, _ := newTestFabric(t, 8)
		now := uint64(0)
		for _, op := range opsRaw {
			d := int(op) % 8
			w := int(op>>3)%7 + 1
			holder := int(op>>6) % 8
			if holder == d {
				continue
			}
			now += 70
			_ = fab.Reassign(d, w, holder, now) // errors are fine; state must stay valid
		}
		if fab.CheckInvariants() != nil {
			return false
		}
		// Cross-check: the union of AppendHoldersToward over all sources matches
		// the channel table exactly.
		for d := 0; d < 8; d++ {
			seen := map[int]int{}
			for s := 0; s < 8; s++ {
				if s == d {
					continue
				}
				for _, w := range fab.AppendHoldersToward(nil, s, d) {
					if prev, dup := seen[w]; dup {
						t.Logf("channel (%d,λ%d) held by %d and %d", d, w, prev, s)
						return false
					}
					seen[w] = s
					if fab.Channel(d, w).Holder() != s {
						return false
					}
				}
			}
			if len(seen) != 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
