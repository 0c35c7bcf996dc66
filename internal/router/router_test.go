package router

import (
	"fmt"
	"testing"

	"repro/internal/flit"
)

// collector is a test sink that records arrivals and returns credits
// after one cycle, like an ideal downstream buffer.
type collector struct {
	router  *Router // credits go back to this router's output port
	port    int
	flits   []*flit.Flit
	stamps  []uint64
	packets []*flit.Packet
	// holdCredits suppresses credit return (to test backpressure).
	holdCredits bool
}

func (c *collector) PutFlit(f *flit.Flit, readyAt uint64) {
	c.flits = append(c.flits, f)
	c.stamps = append(c.stamps, readyAt)
	if f.IsTail() {
		c.packets = append(c.packets, f.Packet)
	}
	if !c.holdCredits && c.router != nil {
		c.router.CreditSink(c.port).PutCredit(f.VC, readyAt+1)
	}
}

// sender drives flits into a router input port, respecting credits.
type sender struct {
	r       *Router
	port    int
	credits []int // per VC
	queue   []*flit.Flit
	sentAt  []uint64
}

func newSender(r *Router, port, vcs, depth int) *sender {
	s := &sender{r: r, port: port, credits: make([]int, vcs)}
	for v := range s.credits {
		s.credits[v] = depth
	}
	r.SetInputCreditSink(port, s)
	return s
}

func (s *sender) PutCredit(vc int, readyAt uint64) {
	// Test simplification: apply immediately; stamps in these tests are
	// always in the future relative to use.
	s.credits[vc]++
}

// enqueuePacket queues all flits of a packet on one VC.
func (s *sender) enqueuePacket(p *flit.Packet, vc int) {
	for _, f := range flit.Explode(p) {
		f.VC = vc
		s.queue = append(s.queue, f)
	}
}

// tick sends at most one flit if credits allow.
func (s *sender) tick(now uint64) {
	if len(s.queue) == 0 {
		return
	}
	f := s.queue[0]
	if s.credits[f.VC] <= 0 {
		return
	}
	s.credits[f.VC]--
	s.queue = s.queue[1:]
	s.r.InputSink(s.port).PutFlit(f, now+1)
	s.sentAt = append(s.sentAt, now)
}

func mkPacket(id, src, dst int) *flit.Packet {
	return &flit.Packet{ID: flit.PacketID(id), Src: src, Dst: dst, Size: 64, FlitBytes: 8}
}

// build2x2 creates a 2-in 2-out router routing by packet Dst (0 or 1).
func build2x2(t *testing.T, vcs, depth int) (*Router, *collector, *collector) {
	t.Helper()
	r := MustNew(Config{
		Name: "t", Inputs: 2, Outputs: 2, VCs: vcs, BufDepth: depth,
		Route: func(p *flit.Packet) int { return p.Dst },
	})
	c0 := &collector{router: r, port: 0}
	c1 := &collector{router: r, port: 1}
	r.ConnectOutput(0, OutputLink{Sink: c0, FlitCycles: 1, DownVCs: vcs, DownDepth: 64})
	r.ConnectOutput(1, OutputLink{Sink: c1, FlitCycles: 1, DownVCs: vcs, DownDepth: 64})
	return r, c0, c1
}

// runCycles drives the senders and the router for n cycles, checking
// every ActiveSet bit, HasWork and Quiescent against an exhaustive scan
// after each one.
func runCycles(r *Router, senders []*sender, n uint64) {
	for now := uint64(0); now < n; now++ {
		for _, s := range senders {
			s.tick(now)
		}
		r.Tick(now)
		if err := r.CheckIndex(); err != nil {
			panic(fmt.Sprintf("cycle %d: %v", now, err))
		}
	}
}

func TestSinglePacketTraversal(t *testing.T) {
	r, c0, _ := build2x2(t, 2, 8)
	s := newSender(r, 0, 2, 8)
	p := mkPacket(1, 0, 0)
	s.enqueuePacket(p, 0)
	runCycles(r, []*sender{s}, 50)

	if len(c0.packets) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(c0.packets))
	}
	if len(c0.flits) != 8 {
		t.Fatalf("delivered %d flits, want 8", len(c0.flits))
	}
	for i, f := range c0.flits {
		if f.Index != i {
			t.Fatalf("flit order violated: position %d has index %d", i, f.Index)
		}
	}
	// Head enters at cycle 0 (ready at 1). RC at 1, VA at 2, SA/ST at 3:
	// head arrival stamp = 3 + FlitCycles = 4.
	if c0.stamps[0] != 4 {
		t.Fatalf("head arrival stamp = %d, want 4 (RC+VA+SA+ST pipeline)", c0.stamps[0])
	}
	ctr := r.Counters()
	if ctr.FlitsIn != 8 || ctr.FlitsOut != 8 || ctr.PacketsOut != 1 {
		t.Fatalf("counters = %+v", ctr)
	}
	if !r.Quiescent() {
		t.Fatal("router not quiescent after drain")
	}
}

func TestBodyFlitsPipelineAtChannelRate(t *testing.T) {
	r, c0, _ := build2x2(t, 2, 8)
	s := newSender(r, 0, 2, 8)
	s.enqueuePacket(mkPacket(1, 0, 0), 0)
	runCycles(r, []*sender{s}, 60)
	if len(c0.stamps) != 8 {
		t.Fatalf("got %d flits", len(c0.stamps))
	}
	// With FlitCycles=1 and ample buffering, consecutive flits should be
	// spaced exactly 1 cycle apart after the pipeline fills.
	for i := 1; i < 8; i++ {
		if c0.stamps[i]-c0.stamps[i-1] != 1 {
			t.Fatalf("flit spacing at %d: %d cycles, want 1 (stamps %v)", i, c0.stamps[i]-c0.stamps[i-1], c0.stamps)
		}
	}
}

func TestFlitCyclesPaceOutput(t *testing.T) {
	r := MustNew(Config{
		Name: "paced", Inputs: 1, Outputs: 1, VCs: 1, BufDepth: 8,
		Route: func(p *flit.Packet) int { return 0 },
	})
	c := &collector{router: r, port: 0}
	// 4-cycle flit serialization: the paper's 16-bit channel at 64-bit flits.
	r.ConnectOutput(0, OutputLink{Sink: c, FlitCycles: 4, DownVCs: 1, DownDepth: 64})
	s := newSender(r, 0, 1, 8)
	s.enqueuePacket(mkPacket(1, 0, 0), 0)
	runCycles(r, []*sender{s}, 100)
	if len(c.stamps) != 8 {
		t.Fatalf("got %d flits", len(c.stamps))
	}
	for i := 1; i < 8; i++ {
		if d := c.stamps[i] - c.stamps[i-1]; d < 4 {
			t.Fatalf("flit %d spaced %d cycles, want >= 4", i, d)
		}
	}
	// 8 flits at 4 cycles each = 32 cycles of channel occupancy: the whole
	// packet must take at least 32 cycles head-to-tail on the wire.
	if span := c.stamps[7] - c.stamps[0]; span < 28 {
		t.Fatalf("packet wire span = %d cycles, want >= 28", span)
	}
}

func TestTwoInputsShareOneOutputFairly(t *testing.T) {
	r := MustNew(Config{
		Name: "contend", Inputs: 2, Outputs: 1, VCs: 2, BufDepth: 4,
		Route: func(p *flit.Packet) int { return 0 },
	})
	c := &collector{router: r, port: 0}
	r.ConnectOutput(0, OutputLink{Sink: c, FlitCycles: 1, DownVCs: 2, DownDepth: 64})
	s0 := newSender(r, 0, 2, 4)
	s1 := newSender(r, 1, 2, 4)
	const perInput = 10
	for i := 0; i < perInput; i++ {
		s0.enqueuePacket(mkPacket(100+i, 0, 0), i%2)
		s1.enqueuePacket(mkPacket(200+i, 1, 0), i%2)
	}
	runCycles(r, []*sender{s0, s1}, 2000)
	if got := len(c.packets); got != 2*perInput {
		t.Fatalf("delivered %d packets, want %d", got, 2*perInput)
	}
	// Both inputs should finish within the run and interleave: check that
	// neither source is fully serialized before the other starts.
	firstFrom := map[int]int{}
	for i, p := range c.packets {
		src := p.Src
		if _, seen := firstFrom[src]; !seen {
			firstFrom[src] = i
		}
	}
	if firstFrom[0] >= perInput || firstFrom[1] >= perInput {
		t.Fatalf("output starved one input: first deliveries %v", firstFrom)
	}
	if r.Counters().SAConflicts == 0 {
		t.Fatal("expected SA conflicts under contention")
	}
}

func TestWormholeIntegrityUnderContention(t *testing.T) {
	// Flits of different packets must never interleave within a VC, and
	// each packet's flits must arrive in index order.
	r := MustNew(Config{
		Name: "worm", Inputs: 4, Outputs: 1, VCs: 2, BufDepth: 2,
		Route: func(p *flit.Packet) int { return 0 },
	})
	c := &collector{router: r, port: 0}
	r.ConnectOutput(0, OutputLink{Sink: c, FlitCycles: 1, DownVCs: 2, DownDepth: 8})
	var senders []*sender
	for p := 0; p < 4; p++ {
		s := newSender(r, p, 2, 2)
		for i := 0; i < 5; i++ {
			s.enqueuePacket(mkPacket(p*100+i, p, 0), i%2)
		}
		senders = append(senders, s)
	}
	runCycles(r, senders, 5000)
	if len(c.packets) != 20 {
		t.Fatalf("delivered %d packets, want 20", len(c.packets))
	}
	next := map[flit.PacketID]int{}
	for _, f := range c.flits {
		if f.Index != next[f.Packet.ID] {
			t.Fatalf("packet %d flit %d arrived out of order (want %d)", f.Packet.ID, f.Index, next[f.Packet.ID])
		}
		next[f.Packet.ID]++
	}
	// Per output VC, packets must be contiguous: a head on a VC may not
	// appear while another packet's tail on that VC is outstanding.
	open := map[int]flit.PacketID{}
	for _, f := range c.flits {
		if cur, ok := open[f.VC]; ok {
			if f.Packet.ID != cur {
				t.Fatalf("VC %d interleaved packets %d and %d", f.VC, cur, f.Packet.ID)
			}
		} else if !f.IsHead() {
			t.Fatalf("VC %d saw non-head flit %v with no open packet", f.VC, f)
		} else {
			open[f.VC] = f.Packet.ID
		}
		if f.IsTail() {
			delete(open, f.VC)
		}
	}
}

func TestCreditBackpressureStallsSender(t *testing.T) {
	r := MustNew(Config{
		Name: "bp", Inputs: 1, Outputs: 1, VCs: 1, BufDepth: 8,
		Route: func(p *flit.Packet) int { return 0 },
	})
	c := &collector{router: r, port: 0, holdCredits: true}
	r.ConnectOutput(0, OutputLink{Sink: c, FlitCycles: 1, DownVCs: 1, DownDepth: 2})
	s := newSender(r, 0, 1, 8)
	s.enqueuePacket(mkPacket(1, 0, 0), 0)
	runCycles(r, []*sender{s}, 100)
	// Downstream holds credits: only DownDepth flits may ever leave.
	if len(c.flits) != 2 {
		t.Fatalf("delivered %d flits with 2 downstream slots and held credits, want 2", len(c.flits))
	}
	if r.Counters().CreditStall == 0 {
		t.Fatal("expected credit stalls")
	}
	// Release credits and continue: the rest must flow.
	c.holdCredits = false
	for _, f := range c.flits {
		r.CreditSink(0).PutCredit(f.VC, 101)
	}
	for now := uint64(101); now < 300; now++ {
		s.tick(now)
		r.Tick(now)
	}
	if len(c.packets) != 1 {
		t.Fatalf("packet never completed after credit release: %d flits", len(c.flits))
	}
}

func TestInputOverflowPanics(t *testing.T) {
	r, _, _ := build2x2(t, 1, 1)
	in := r.InputSink(0)
	f1 := &flit.Flit{Kind: flit.Head, Packet: mkPacket(1, 0, 0), VC: 0}
	f2 := &flit.Flit{Kind: flit.Body, Packet: mkPacket(1, 0, 0), VC: 0}
	in.PutFlit(f1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("buffer overflow did not panic")
		}
	}()
	in.PutFlit(f2, 1)
}

func TestInvalidVCPanics(t *testing.T) {
	r, _, _ := build2x2(t, 2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid VC did not panic")
		}
	}()
	r.InputSink(0).PutFlit(&flit.Flit{Kind: flit.Head, Packet: mkPacket(1, 0, 0), VC: 5}, 1)
}

func TestInvalidRoutePanics(t *testing.T) {
	r := MustNew(Config{
		Name: "badroute", Inputs: 1, Outputs: 1, VCs: 1, BufDepth: 2,
		Route: func(p *flit.Packet) int { return 7 },
	})
	c := &collector{router: r, port: 0}
	r.ConnectOutput(0, OutputLink{Sink: c, FlitCycles: 1, DownVCs: 1, DownDepth: 4})
	r.InputSink(0).PutFlit(&flit.Flit{Kind: flit.HeadTail, Packet: mkPacket(1, 0, 0), VC: 0}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid route did not panic")
		}
	}()
	r.Tick(0)
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Inputs: 0, Outputs: 1, VCs: 1, BufDepth: 1, Route: func(*flit.Packet) int { return 0 }},
		{Inputs: 1, Outputs: 0, VCs: 1, BufDepth: 1, Route: func(*flit.Packet) int { return 0 }},
		{Inputs: 1, Outputs: 1, VCs: 0, BufDepth: 1, Route: func(*flit.Packet) int { return 0 }},
		{Inputs: 1, Outputs: 1, VCs: 1, BufDepth: 0, Route: func(*flit.Packet) int { return 0 }},
		{Inputs: 1, Outputs: 1, VCs: 1, BufDepth: 1, Route: nil},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestFlitConservationRandomized(t *testing.T) {
	// Conservation: everything sent is delivered exactly once, for a mix
	// of packets across ports and VCs (runCycles checks the index after
	// every cycle). The 130-port case spans three set words; its senders
	// and destinations sit on both sides of each word boundary.
	cases := []struct {
		name  string
		ports int
		busy  []int // ports that send, and that packets are sent to
	}{
		{"3", 3, []int{0, 1, 2}},
		{"130", 130, []int{0, 63, 64, 127, 128, 129}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := MustNew(Config{
				Name: "conserve", Inputs: tc.ports, Outputs: tc.ports, VCs: 2, BufDepth: 2,
				Route: func(p *flit.Packet) int { return p.Dst },
			})
			cols := make([]*collector, tc.ports)
			for o := range cols {
				cols[o] = &collector{router: r, port: o}
				r.ConnectOutput(o, OutputLink{Sink: cols[o], FlitCycles: 2, DownVCs: 2, DownDepth: 4})
			}
			var senders []*sender
			id := 0
			for i, p := range tc.busy {
				s := newSender(r, p, 2, 2)
				for j := 0; j < 8; j++ {
					id++
					s.enqueuePacket(mkPacket(id, p, tc.busy[(i+j)%len(tc.busy)]), j%2)
				}
				senders = append(senders, s)
			}
			runCycles(r, senders, 10000)
			total := 0
			seen := map[flit.PacketID]bool{}
			for o, c := range cols {
				total += len(c.packets)
				for _, p := range c.packets {
					if seen[p.ID] {
						t.Fatalf("packet %d delivered twice", p.ID)
					}
					seen[p.ID] = true
					if p.Dst != o {
						t.Fatalf("packet %d for %d delivered to %d", p.ID, p.Dst, o)
					}
				}
			}
			if total != id {
				t.Fatalf("delivered %d packets, want %d", total, id)
			}
			if !r.Quiescent() {
				t.Fatal("router not quiescent after drain")
			}
		})
	}
}

func BenchmarkRouterTickIdle(b *testing.B) {
	r := MustNew(Config{
		Name: "idle", Inputs: 15, Outputs: 15, VCs: 2, BufDepth: 1,
		Route: func(p *flit.Packet) int { return p.Dst % 15 },
	})
	sink := &collector{}
	for o := 0; o < 15; o++ {
		r.ConnectOutput(o, OutputLink{Sink: sink, FlitCycles: 4, DownVCs: 2, DownDepth: 8})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Tick(uint64(i))
	}
}

func BenchmarkRouterSaturated(b *testing.B) {
	r := MustNew(Config{
		Name: "sat", Inputs: 4, Outputs: 4, VCs: 2, BufDepth: 2,
		Route: func(p *flit.Packet) int { return p.Dst },
	})
	cols := make([]*collector, 4)
	senders := make([]*sender, 4)
	for o := 0; o < 4; o++ {
		cols[o] = &collector{router: r, port: o}
		r.ConnectOutput(o, OutputLink{Sink: cols[o], FlitCycles: 1, DownVCs: 2, DownDepth: 4})
		senders[o] = newSender(r, o, 2, 2)
	}
	id := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for si, s := range senders {
			if len(s.queue) < 16 {
				id++
				s.enqueuePacket(mkPacket(id, si, (si+1+i)%4), id%2)
			}
			s.tick(uint64(i))
		}
		r.Tick(uint64(i))
	}
}

// TestSASleepsUntilAble checks that SA stage 1 visits an input VC only
// from the cycle it can bid: (a) a flit stamped beyond one wheel lap
// keeps ready empty until its cycle and traverses on exactly that cycle;
// (b) a VC behind a busy output is deferred once, to the cycle the output
// frees, not polled; (c) a credit-starved VC stalls, counted in
// CreditStall every cycle as before, and resumes on the cycle its credit
// matures.
func TestSASleepsUntilAble(t *testing.T) {
	newRouter := func(inputs, depth int, link OutputLink) *Router {
		r := MustNew(Config{Name: "sleep", Inputs: inputs, Outputs: 1, VCs: 1, BufDepth: depth,
			Route: func(*flit.Packet) int { return 0 }})
		r.ConnectOutput(0, link)
		return r
	}
	tick := func(r *Router, now uint64) {
		t.Helper()
		r.Tick(now)
		if err := r.CheckIndex(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
	}
	put := func(r *Router, port int, f *flit.Flit, readyAt uint64) {
		f.VC = 0
		r.InputSink(port).PutFlit(f, readyAt)
	}

	t.Run("a-beyond-a-lap", func(t *testing.T) {
		c := &collector{}
		r := newRouter(1, 2, OutputLink{Sink: c, FlitCycles: 1, DownVCs: 1, DownDepth: 8})
		fl := flit.Explode(&flit.Packet{ID: 1, Size: 16, FlitBytes: 8})
		put(r, 0, fl[0], 1)
		now := uint64(0)
		for ; len(c.flits) == 0; now++ {
			tick(r, now)
		}
		const ahead = 40 // > wheelSlots: the entry must survive a turn of its slot
		due := now + ahead
		put(r, 0, fl[1], due)
		for ; now < due; now++ {
			tick(r, now)
			if !r.ready.Empty() || len(c.flits) != 1 {
				t.Fatalf("cycle %d (flit due %d): ready %v, %d flits out", now, due, r.ready, len(c.flits))
			}
		}
		tick(r, due)
		if len(c.flits) != 2 || c.stamps[1] != due+1 {
			t.Fatalf("tail: %d flits out, stamps %v; want it sent at %d", len(c.flits), c.stamps, due)
		}
	})

	t.Run("b-busy-output", func(t *testing.T) {
		const flitCycles = 10
		c := &collector{}
		r := newRouter(2, 1, OutputLink{Sink: c, FlitCycles: flitCycles, DownVCs: 2, DownDepth: 8})
		for p := range 2 {
			put(r, p, flit.Explode(&flit.Packet{ID: flit.PacketID(p + 1), Src: p, Size: 8, FlitBytes: 8})[0], 1)
		}
		// RC at 1, VA at 2 (which advances the output's round-robin
		// pointer to input 1); both bid at 3 and input 1 wins the output
		// until 3+flitCycles. Input 0's VC, which lost, finds the output
		// busy at 4 and must then sleep until it frees.
		deferrals, prev := 0, r.saAt[0]
		for now := uint64(0); now < 3+flitCycles; now++ {
			tick(r, now)
			if at := r.saAt[0]; at != prev {
				deferrals, prev = deferrals+1, at
			}
			if now >= 4 && (r.ready.Has(0) || r.saAt[0] != 3+flitCycles) {
				t.Fatalf("cycle %d: input 0 ready %v, saAt %d; want asleep until %d", now, r.ready.Has(0), r.saAt[0], 3+flitCycles)
			}
		}
		// The VA arm (never → 3) and one deferral (3 → 13).
		if deferrals != 2 || len(c.flits) != 1 || c.flits[0].Packet.Src != 1 {
			t.Fatalf("input 0's saAt moved %d times, want 2; %d flits out", deferrals, len(c.flits))
		}
		tick(r, 3+flitCycles)
		if len(c.flits) != 2 || c.flits[1].Packet.Src != 0 || c.stamps[1] != 3+2*flitCycles {
			t.Fatalf("after the output frees: %d flits out, stamps %v", len(c.flits), c.stamps)
		}
	})

	t.Run("c-credit-starved", func(t *testing.T) {
		c := &collector{holdCredits: true}
		r := newRouter(1, 2, OutputLink{Sink: c, FlitCycles: 1, DownVCs: 1, DownDepth: 1})
		fl := flit.Explode(&flit.Packet{ID: 1, Size: 16, FlitBytes: 8})
		put(r, 0, fl[0], 1)
		put(r, 0, fl[1], 1)
		// RC at 1, VA at 2, the head takes the only credit at 3; the tail
		// bids from 4 and stalls until the credit returned at 10 matures
		// at 15.
		const back, matures = 10, 15
		for now := uint64(0); now < matures; now++ {
			if now == back {
				r.CreditSink(0).PutCredit(0, matures)
			}
			tick(r, now)
		}
		if got, want := r.Counters().CreditStall, uint64(matures-4); got != want || len(c.flits) != 1 {
			t.Fatalf("CreditStall %d, want %d; %d flits out", got, want, len(c.flits))
		}
		tick(r, matures)
		if len(c.flits) != 2 || c.stamps[1] != matures+1 || r.Counters().CreditStall != matures-4 {
			t.Fatalf("after the credit matures: %d flits out, stamps %v, CreditStall %d", len(c.flits), c.stamps, r.Counters().CreditStall)
		}
	})
}
