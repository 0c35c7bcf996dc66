package link

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/router"
)

// memSink records flits and can return credits through a PacketSource.
type memSink struct {
	flits  []*flit.Flit
	stamps []uint64
	src    *PacketSource
}

func (m *memSink) PutFlit(f *flit.Flit, readyAt uint64) {
	m.flits = append(m.flits, f)
	m.stamps = append(m.stamps, readyAt)
	if m.src != nil {
		m.src.PutCredit(f.VC, readyAt+1)
	}
}

func mkPacket(id int) *flit.Packet {
	return &flit.Packet{ID: flit.PacketID(id), Size: 64, FlitBytes: 8}
}

func TestSourceSendsWholePacketPaced(t *testing.T) {
	m := &memSink{}
	s := NewPacketSource("nic", m, 2, 8, 4)
	m.src = s
	s.Enqueue(mkPacket(1))
	for now := uint64(0); now < 100; now++ {
		s.Tick(now)
	}
	if len(m.flits) != 8 {
		t.Fatalf("sent %d flits, want 8", len(m.flits))
	}
	for i := 1; i < 8; i++ {
		if d := m.stamps[i] - m.stamps[i-1]; d != 4 {
			t.Fatalf("flit %d spacing = %d cycles, want 4", i, d)
		}
	}
	if s.HasWork() {
		t.Fatal("source still has work after sending its only packet")
	}
	// All flits of one packet stay on one VC.
	vc := m.flits[0].VC
	for _, f := range m.flits {
		if f.VC != vc {
			t.Fatal("packet flits spread across VCs")
		}
	}
}

func TestSourceRespectsCredits(t *testing.T) {
	m := &memSink{} // no src: credits never return
	s := NewPacketSource("nic", m, 1, 2, 1)
	s.Enqueue(mkPacket(1))
	for now := uint64(0); now < 50; now++ {
		s.Tick(now)
	}
	if len(m.flits) != 2 {
		t.Fatalf("sent %d flits with 2 credits, want 2", len(m.flits))
	}
	// Return credits; transmission must resume.
	s.PutCredit(0, 51)
	s.PutCredit(0, 51)
	for now := uint64(51); now < 200; now++ {
		s.Tick(now)
	}
	if len(m.flits) != 4 {
		t.Fatalf("sent %d flits after 2 more credits, want 4", len(m.flits))
	}
}

// TestSourceSleepsUntilCredit drives a one-VC, one-credit source whose
// sink never returns credits: the source's bit must drop once its credit
// is spent, stay down through the serialization gap and across an
// Enqueue, and rise on PutCredit; it must equal HasWork after every call.
func TestSourceSleepsUntilCredit(t *testing.T) {
	m := &memSink{}
	s := NewPacketSource("nic", m, 1, 1, 4)
	set := router.NewActiveSet(1)
	s.TrackIn(set, 0)
	check := func(step string, want bool) {
		t.Helper()
		if set.Has(0) != s.HasWork() {
			t.Fatalf("%s: bit %v, HasWork %v", step, set.Has(0), s.HasWork())
		}
		if set.Has(0) != want {
			t.Fatalf("%s: bit %v, want %v", step, set.Has(0), want)
		}
	}
	check("fresh", false)
	s.Enqueue(mkPacket(1))
	check("Enqueue", true)
	s.Tick(0)
	if len(m.flits) != 1 {
		t.Fatalf("sent %d flits at cycle 0, want 1", len(m.flits))
	}
	check("after the head flit", false)
	s.Enqueue(mkPacket(2))
	check("Enqueue onto a credit-blocked source", false)
	for now := uint64(1); now < 4; now++ {
		s.Tick(now)
		check("serialization gap", false)
	}
	now := uint64(4)
	s.PutCredit(0, now+1)
	check("PutCredit", true)
	s.Tick(now) // the credit matures at now+1
	check("credit pending", true)
	if len(m.flits) != 1 {
		t.Fatalf("sent %d flits before the credit matured, want 1", len(m.flits))
	}
	// Return each flit's credit a cycle after it leaves until both
	// packets are out.
	for now++; len(m.flits) < 16 && now < 200; now++ {
		n := len(m.flits)
		s.Tick(now)
		check("Tick", len(m.flits) == n)
		if len(m.flits) > n {
			s.PutCredit(0, now+1)
			check("PutCredit", len(m.flits) < 16)
		}
	}
	if len(m.flits) != 16 {
		t.Fatalf("sent %d flits, want 16", len(m.flits))
	}
	s.Tick(now)
	check("drained, one credit pending", false)
}

func TestSourceQueuesMultiplePackets(t *testing.T) {
	m := &memSink{}
	s := NewPacketSource("nic", m, 2, 4, 1)
	m.src = s
	for i := 0; i < 5; i++ {
		s.Enqueue(mkPacket(i))
	}
	if s.QueueLen() != 5 {
		t.Fatalf("QueueLen = %d, want 5", s.QueueLen())
	}
	var order []flit.PacketID
	for now := uint64(0); now < 500; now++ {
		s.Tick(now)
	}
	for _, f := range m.flits {
		if f.IsHead() {
			order = append(order, f.Packet.ID)
		}
	}
	if len(order) != 5 {
		t.Fatalf("started %d packets, want 5", len(order))
	}
	for i := 1; i < 5; i++ {
		if order[i] != order[i-1]+1 {
			t.Fatalf("packets reordered: %v", order)
		}
	}
	tails := 0
	for _, f := range m.flits {
		if f.IsTail() {
			tails++
		}
	}
	if tails != 5 || s.HasWork() {
		t.Fatalf("finished %d packets (want 5), HasWork=%v", tails, s.HasWork())
	}
}

func TestSourceOnDequeueStampsNetworkEntry(t *testing.T) {
	m := &memSink{}
	s := NewPacketSource("nic", m, 1, 8, 1)
	m.src = s
	var stamped uint64
	s.OnDequeue = func(p *flit.Packet, now uint64) { stamped = now }
	s.Enqueue(mkPacket(1))
	for now := uint64(10); now < 40; now++ {
		s.Tick(now)
	}
	if stamped != 10 {
		t.Fatalf("OnDequeue at %d, want 10", stamped)
	}
}

func TestSourceVCRoundRobin(t *testing.T) {
	m := &memSink{}
	s := NewPacketSource("nic", m, 2, 8, 1)
	m.src = s
	for i := 0; i < 4; i++ {
		s.Enqueue(mkPacket(i))
	}
	for now := uint64(0); now < 500; now++ {
		s.Tick(now)
	}
	used := map[int]int{}
	for _, f := range m.flits {
		if f.IsHead() {
			used[f.VC]++
		}
	}
	if used[0] != 2 || used[1] != 2 {
		t.Fatalf("VC usage = %v, want 2 per VC", used)
	}
}

func TestSinkReassemblesAndCredits(t *testing.T) {
	var delivered []*flit.Packet
	var deliveredAt []uint64
	var credits []uint64
	cs := creditRecorder{&credits}
	k := NewPacketSink("eject", cs, func(p *flit.Packet, now uint64) {
		delivered = append(delivered, p)
		deliveredAt = append(deliveredAt, now)
	})
	p := mkPacket(1)
	for i, f := range flit.Explode(p) {
		f.VC = 0
		k.PutFlit(f, uint64(10+i))
	}
	if len(delivered) != 1 {
		t.Fatalf("delivered %d packets", len(delivered))
	}
	if deliveredAt[0] != 17 {
		t.Fatalf("delivered at %d, want 17 (tail arrival)", deliveredAt[0])
	}
	if len(credits) != 8 {
		t.Fatalf("returned %d credits, want 8", len(credits))
	}
	for i, c := range credits {
		if c != uint64(10+i+1) {
			t.Fatalf("credit %d at %d, want %d (one-cycle delay)", i, c, 10+i+1)
		}
	}
}

type creditRecorder struct{ at *[]uint64 }

func (c creditRecorder) PutCredit(vc int, readyAt uint64) { *c.at = append(*c.at, readyAt) }

func TestSinkInterleavesAcrossVCs(t *testing.T) {
	var done []flit.PacketID
	k := NewPacketSink("eject", nil, func(p *flit.Packet, now uint64) { done = append(done, p.ID) })
	p0, p1 := mkPacket(10), mkPacket(11)
	f0 := flit.Explode(p0)
	f1 := flit.Explode(p1)
	for i := 0; i < 8; i++ {
		f0[i].VC = 0
		f1[i].VC = 1
		k.PutFlit(f0[i], uint64(i))
		k.PutFlit(f1[i], uint64(i))
	}
	if len(done) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(done))
	}
}

func TestSinkPanicsOnVCInterleaveWithinVC(t *testing.T) {
	k := NewPacketSink("eject", nil, nil)
	p0, p1 := mkPacket(1), mkPacket(2)
	h0 := flit.Explode(p0)[0]
	h1 := flit.Explode(p1)[0]
	h0.VC, h1.VC = 0, 0
	k.PutFlit(h0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("intra-VC interleave did not panic")
		}
	}()
	k.PutFlit(h1, 2)
}

func TestSinkPanicsOnStrayBody(t *testing.T) {
	k := NewPacketSink("eject", nil, nil)
	b := flit.Explode(mkPacket(1))[3]
	b.VC = 0
	defer func() {
		if recover() == nil {
			t.Fatal("stray body flit did not panic")
		}
	}()
	k.PutFlit(b, 1)
}

func TestSourceThroughRouterToSink(t *testing.T) {
	// Integration: NIC -> router -> ejector, end to end.
	r := router.MustNew(router.Config{
		Name: "ibi", Inputs: 1, Outputs: 1, VCs: 2, BufDepth: 1,
		Route: func(p *flit.Packet) int { return 0 },
	})
	var got []*flit.Packet
	sink := NewPacketSink("eject", r.CreditSink(0), func(p *flit.Packet, now uint64) { got = append(got, p) })
	r.ConnectOutput(0, router.OutputLink{Sink: sink, FlitCycles: 4, DownVCs: 2, DownDepth: 8})
	src := NewPacketSource("nic", r.InputSink(0), 2, 1, 4)
	r.SetInputCreditSink(0, src)
	for i := 0; i < 3; i++ {
		src.Enqueue(mkPacket(i))
	}
	for now := uint64(0); now < 2000; now++ {
		src.Tick(now)
		r.Tick(now)
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d packets end-to-end, want 3", len(got))
	}
	if !r.Quiescent() {
		t.Fatal("router not quiescent")
	}
}

func TestSourceInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid source config did not panic")
		}
	}()
	NewPacketSource("bad", &memSink{}, 0, 1, 1)
}
