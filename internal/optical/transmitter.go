package optical

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/router"
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

	vcs []txVC
}

type txVC struct {
	entries []txEntry
}

type txEntry struct {
	f       *flit.Flit
	readyAt uint64
}

// init prepares an in-place (slab-allocated) transmitter. Each VC's
// reassembly buffer is pre-sized to a full packet — the credit protocol
// caps it there — so the steady state never grows it.
func (t *Transmitter) init(f *Fabric, s, w int) {
	t.f, t.s, t.w = f, s, w
	t.vcs = make([]txVC, f.cfg.VCs)
	for v := range t.vcs {
		t.vcs[v].entries = make([]txEntry, 0, f.cfg.FlitsPerPacket)
	}
}

// SetCreditSink registers where reassembly credits are returned (the IBI
// output port feeding this transmitter).
func (t *Transmitter) SetCreditSink(cs router.CreditSink) { t.cs = cs }

// PutFlit implements router.Sink: it accepts one flit of the electrical
// stream into the per-VC reassembly buffer. Only a tail flit wakes the
// transmitter, through the board's wheel at the tail's readyAt: until
// then no packet can leave, so tick has nothing to do.
func (t *Transmitter) PutFlit(f *flit.Flit, readyAt uint64) {
	if f.VC < 0 || f.VC >= len(t.vcs) {
		panic(fmt.Sprintf("optical: tx(%d,λ%d): flit on invalid VC %d", t.s, t.w, f.VC))
	}
	vc := &t.vcs[f.VC]
	if len(vc.entries) >= t.f.cfg.FlitsPerPacket {
		panic(fmt.Sprintf("optical: tx(%d,λ%d): VC %d reassembly overflow (credit protocol violated)", t.s, t.w, f.VC))
	}
	vc.entries = append(vc.entries, txEntry{f: f, readyAt: readyAt})
	if f.IsTail() {
		t.f.boards[t.s].txWheel.Arm(t.w-1, readyAt)
	}
}

// tick moves completed packets from reassembly buffers into laser queues
// and returns the freed flit credits. It leaves the board's txPending set
// once no buffer holds a matured packet; a packet held back by a full
// laser queue keeps the transmitter in the set, polling.
func (t *Transmitter) tick(now uint64) {
	for v := range t.vcs {
		vc := &t.vcs[v]
		if len(vc.entries) == 0 {
			continue
		}
		// A packet is movable when its tail has fully arrived.
		tail := vc.entries[len(vc.entries)-1]
		if !tail.f.IsTail() || tail.readyAt > now {
			continue
		}
		p := tail.f.Packet
		// Wormhole per VC guarantees the buffer holds exactly this packet.
		if !vc.entries[0].f.IsHead() || vc.entries[0].f.Packet != p {
			panic(fmt.Sprintf("optical: tx(%d,λ%d): VC %d reassembly corrupted", t.s, t.w, v))
		}
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
			// free the reassembly buffer.
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
		laser.queue = append(laser.queue, p)
		t.f.activateLaser(laser, now)
		if t.f.sink != nil {
			t.f.sink.Emit(telemetry.Event{Cycle: now, Kind: telemetry.PacketLaserEnqueue, Packet: uint64(p.ID), Board: t.s, Wavelength: t.w, Dest: dst})
		}
		t.release(v, now)
	}
	if !t.holdsPacket(now + 1) {
		t.f.boards[t.s].txPending.Remove(t.w - 1)
	}
}

// holdsPacket reports whether some VC's last entry is a tail stamped
// before cycle next: the predicate the board's txPending bit tracks.
func (t *Transmitter) holdsPacket(next uint64) bool {
	for v := range t.vcs {
		if e := t.vcs[v].entries; len(e) > 0 && e[len(e)-1].f.IsTail() && e[len(e)-1].readyAt < next {
			return true
		}
	}
	return false
}

// release empties VC v's reassembly buffer, whose packet has left it, and
// returns its flit credits upstream at now+1.
func (t *Transmitter) release(v int, now uint64) {
	vc := &t.vcs[v]
	n := len(vc.entries)
	clear(vc.entries)
	vc.entries = vc.entries[:0]
	if t.cs != nil {
		for range n {
			t.cs.PutCredit(v, now+1)
		}
	}
}

// PendingFlits returns the number of flits currently buffered across all
// VCs, by a scan of the VC buffers.
func (t *Transmitter) PendingFlits() int {
	n := 0
	for v := range t.vcs {
		n += len(t.vcs[v].entries)
	}
	return n
}
