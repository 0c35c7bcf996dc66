package optical

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Transmitter is one wavelength's transmit unit at a board: the
// electrical-to-optical domain crossing. It terminates one IBI output
// port, reassembles the per-VC flit streams into packets (packets, not
// flits, interleave in the optical domain), and dispatches each completed
// packet to the laser aimed at its destination board.
//
// It implements router.Sink; register its credit return path with
// SetCreditSink so reassembly-buffer slots flow back to the IBI.
type Transmitter struct {
	f  *Fabric
	s  int // board
	w  int // wavelength
	cs router.CreditSink

	vcs []txVC // this transmitter's window of the fabric's VC slab
}

// txVC is one VC's reassembly record. The credit protocol caps a VC at
// one packet, and wormhole switching delivers its flits in order, so the
// packet, the count of its flits received and the cycle its tail matures
// (sim.MaxTime until the tail arrives) are all a packet's flits are read
// back for. The zero record is an empty VC.
type txVC struct {
	p      *flit.Packet
	n      int
	tailAt uint64
}

// SetCreditSink registers where reassembly credits are returned (the IBI
// output port feeding this transmitter).
func (t *Transmitter) SetCreditSink(cs router.CreditSink) { t.cs = cs }

// PutFlit implements router.Sink: it accepts one flit of the electrical
// stream into the per-VC reassembly record, checking that it continues
// the packet the VC holds. Only a tail flit wakes the transmitter,
// through the fabric's wheel at the tail's readyAt: until then no packet
// can leave, so tick has nothing to do.
func (t *Transmitter) PutFlit(f *flit.Flit, readyAt uint64) {
	if f.VC < 0 || f.VC >= len(t.vcs) {
		panic(fmt.Sprintf("optical: tx(%d,λ%d): flit on invalid VC %d", t.s, t.w, f.VC))
	}
	vc := &t.vcs[f.VC]
	switch {
	case vc.n >= t.f.cfg.FlitsPerPacket:
		panic(fmt.Sprintf("optical: tx(%d,λ%d): VC %d reassembly overflow (credit protocol violated)", t.s, t.w, f.VC))
	case vc.n == 0 && !f.IsHead():
		panic(fmt.Sprintf("optical: tx(%d,λ%d): stray %v on VC %d with no open packet", t.s, t.w, f, f.VC))
	case vc.n > 0 && (f.IsHead() || f.Packet != vc.p):
		panic(fmt.Sprintf("optical: tx(%d,λ%d): %v on VC %d interleaves packet %v", t.s, t.w, f, f.VC, vc.p))
	case vc.n == 0:
		*vc = txVC{p: f.Packet, tailAt: sim.MaxTime}
	}
	vc.n++
	if f.IsTail() {
		vc.tailAt = readyAt
		t.f.txWheel.Arm(t.s*(len(t.f.boards)-1)+t.w-1, readyAt)
	}
}

// tick moves completed packets from reassembly records into laser queues
// and returns the freed flit credits. It reports whether a record still
// holds a matured packet (holdsPacket), which keeps the transmitter in
// the fabric's txPending set: a packet held back by a full laser queue
// polls.
func (t *Transmitter) tick(now uint64) bool {
	for v := range t.vcs {
		// A packet is movable when its tail has fully arrived.
		vc := &t.vcs[v]
		if vc.n == 0 || vc.tailAt > now {
			continue
		}
		p := vc.p
		dst := p.DstBoard
		if dst == t.s {
			panic(fmt.Sprintf("optical: tx(%d,λ%d): intra-board packet %v reached the optical domain", t.s, t.w, p))
		}
		if !t.f.CanHold(t.s, t.w, dst) {
			panic(fmt.Sprintf("optical: tx(%d,λ%d): packet for board %d routed to an unpopulated laser port", t.s, t.w, dst))
		}
		// A fallback onto a dark laser materialises it: it is about to
		// hold a packet.
		laser := t.f.laser(t.s, t.w, dst)
		if laser.permFailed {
			// The laser is permanently dead and routing had no surviving
			// alternative: drop the packet rather than wedge the VC, and
			// free the reassembly record.
			laser.dropWin++
			if t.f.dropHook != nil {
				t.f.dropHook(p, now)
			}
			t.release(v, now)
			continue
		}
		if len(laser.queue) >= t.f.cfg.QueueCap {
			continue // backpressure: hold credits until the laser drains
		}
		t.f.activateLaser(laser, now)
		laser.queue = append(laser.queue, p)
		if t.f.sink != nil {
			t.f.sink.Emit(telemetry.Event{Cycle: now, Kind: telemetry.PacketLaserEnqueue, Packet: uint64(p.ID), Board: t.s, Wavelength: t.w, Dest: dst})
		}
		t.release(v, now)
	}
	return t.holdsPacket(now + 1)
}

// holdsPacket reports whether some VC holds a packet whose tail is
// stamped before cycle next: the predicate the fabric's txPending bit
// tracks.
func (t *Transmitter) holdsPacket(next uint64) bool {
	for v := range t.vcs {
		if vc := &t.vcs[v]; vc.n > 0 && vc.tailAt < next {
			return true
		}
	}
	return false
}

// release empties VC v's reassembly record, whose packet has left it, and
// returns its flit credits upstream at now+1.
func (t *Transmitter) release(v int, now uint64) {
	n := t.vcs[v].n
	t.vcs[v] = txVC{}
	if t.cs != nil {
		for range n {
			t.cs.PutCredit(v, now+1)
		}
	}
}

// PendingFlits returns the number of flits currently buffered across all
// VCs.
func (t *Transmitter) PendingFlits() int {
	n := 0
	for v := range t.vcs {
		n += t.vcs[v].n
	}
	return n
}
