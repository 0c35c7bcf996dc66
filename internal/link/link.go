// Package link provides the electrical endpoints that feed and drain the
// IBI router: PacketSource (a node's network interface, injecting packets
// as paced flit streams under credit flow control) and PacketSink (a
// node's receive interface, reassembling flits into packets).
//
// Channel timing follows Table 1: a 16-bit channel at 400 MHz carries a
// 64-bit flit in 4 cycles; credits return with a one-cycle delay.
package link

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/router"
)

// PacketSource is a network interface transmit path: an unbounded packet
// queue drained onto a flit channel, respecting per-VC credits of the
// downstream input buffer. It implements router.CreditSink for the
// credits returned by the downstream router.
type PacketSource struct {
	name       string
	sink       router.Sink
	vcs        int
	depth      int
	flitCycles uint64

	queue   []*flit.Packet
	credits []int
	pending []creditEntry

	// act holds bit `bit` up exactly while HasWork is true, so whoever
	// owns a group of sources walks the set instead of polling each one.
	// HasWork reads no clock, so the bit only moves in Enqueue, PutCredit
	// and Tick. A source is born on a private one-bit set; TrackIn moves
	// it to its owner's.
	act router.ActiveSet
	bit int

	// in-flight transmission state. cur points into the current packet's
	// flit slab (flit.Flitize); it is nil when no packet is serializing.
	cur        []flit.Flit
	curIdx     int
	curVC      int
	nextSendAt uint64
	rrVC       int

	// OnDequeue is called when a packet's head flit leaves the source
	// queue (sets Packet.NetworkAt in the system model). May be nil.
	OnDequeue func(p *flit.Packet, now uint64)
}

type creditEntry struct {
	vc      int
	readyAt uint64
}

// NewPacketSource creates a source feeding sink with the given VC count,
// per-VC downstream buffer depth (initial credits) and flit serialization
// time in cycles.
func NewPacketSource(name string, sink router.Sink, vcs, depth int, flitCycles uint64) *PacketSource {
	if vcs < 1 || depth < 1 || flitCycles < 1 {
		panic(fmt.Sprintf("link: source %q: invalid vcs=%d depth=%d flitCycles=%d", name, vcs, depth, flitCycles))
	}
	s := &PacketSource{name: name, sink: sink, vcs: vcs, depth: depth, flitCycles: flitCycles, act: router.NewActiveSet(1)}
	s.credits = make([]int, vcs)
	for v := range s.credits {
		s.credits[v] = depth
	}
	return s
}

// Reset rewinds the source to its freshly constructed state: queue and
// in-flight transmission dropped, credits restored to the downstream
// depth, round-robin pointer zeroed. The sink and the
// OnDequeue callback stay attached, so a wired source can be reused
// across runs without reconstruction.
func (s *PacketSource) Reset() {
	for i := range s.queue {
		s.queue[i] = nil
	}
	s.queue = s.queue[:0]
	for v := range s.credits {
		s.credits[v] = s.depth
	}
	s.pending = s.pending[:0]
	s.cur = nil
	s.curIdx, s.curVC = 0, 0
	s.nextSendAt = 0
	s.rrVC = 0
	s.act.Remove(s.bit)
}

// TrackIn makes bit i of set this source's HasWork bit. Call it on an
// idle source, before the first Enqueue; sources that share a set must
// only ever be mutated by one goroutine at a time.
func (s *PacketSource) TrackIn(set router.ActiveSet, i int) { s.act, s.bit = set, i }

// Enqueue appends a packet to the source queue. A source blocked on
// credits stays asleep: the credit, not the packet, wakes it.
func (s *PacketSource) Enqueue(p *flit.Packet) {
	s.queue = append(s.queue, p)
	s.wake()
}

// QueueLen returns the number of packets waiting (excluding the one in
// flight). Source-queue growth is the canonical saturation signal.
func (s *PacketSource) QueueLen() int { return len(s.queue) }

// HasWork reports whether Tick can act now or once a pending credit
// matures: a packet queued or in flight, and either a pending credit or a
// credit it can spend (on the current packet's VC mid-packet, on any VC
// between packets). It is the predicate the source's ActiveSet bit
// tracks; a source that holds packets but no usable credit sleeps until
// PutCredit.
func (s *PacketSource) HasWork() bool {
	if s.cur == nil && len(s.queue) == 0 {
		return false
	}
	if len(s.pending) > 0 {
		return true
	}
	if s.cur != nil {
		return s.credits[s.curVC] > 0
	}
	for _, c := range s.credits {
		if c > 0 {
			return true
		}
	}
	return false
}

// PutCredit implements router.CreditSink. The credit is absorbed lazily,
// by the next Tick, which absorbs every matured credit before it reads
// any count.
func (s *PacketSource) PutCredit(vc int, readyAt uint64) {
	s.pending = append(s.pending, creditEntry{vc: vc, readyAt: readyAt})
	s.wake()
}

// wake raises the source's bit if it can act.
func (s *PacketSource) wake() {
	if s.HasWork() {
		s.act.Add(s.bit)
	}
}

func (s *PacketSource) absorbCredits(now uint64) {
	if len(s.pending) == 0 {
		return
	}
	kept := s.pending[:0]
	for _, ce := range s.pending {
		if ce.readyAt <= now {
			s.credits[ce.vc]++
		} else {
			kept = append(kept, ce)
		}
	}
	s.pending = kept
}

// Tick advances the source one cycle: it starts a new packet when idle
// and a VC has credit, and sends the next flit when the channel and
// credits allow.
func (s *PacketSource) Tick(now uint64) {
	s.tick(now)
	if !s.HasWork() {
		s.act.Remove(s.bit)
	}
}

func (s *PacketSource) tick(now uint64) {
	s.absorbCredits(now)
	if s.cur == nil {
		if len(s.queue) == 0 {
			return
		}
		// Choose a VC with at least one credit, round-robin for fairness.
		chosen := -1
		for dv := 0; dv < s.vcs; dv++ {
			v := (s.rrVC + dv) % s.vcs
			if s.credits[v] > 0 {
				chosen = v
				break
			}
		}
		if chosen < 0 {
			return
		}
		s.rrVC = (chosen + 1) % s.vcs
		p := s.queue[0]
		copy(s.queue, s.queue[1:])
		s.queue[len(s.queue)-1] = nil
		s.queue = s.queue[:len(s.queue)-1]
		s.cur = p.Flitize()
		s.curIdx = 0
		s.curVC = chosen
		s.nextSendAt = now
		if s.OnDequeue != nil {
			s.OnDequeue(p, now)
		}
	}
	if s.nextSendAt > now || s.credits[s.curVC] <= 0 {
		return
	}
	f := &s.cur[s.curIdx]
	f.VC = s.curVC
	s.credits[s.curVC]--
	s.sink.PutFlit(f, now+s.flitCycles)
	s.nextSendAt = now + s.flitCycles
	s.curIdx++
	if s.curIdx == len(s.cur) {
		s.cur = nil
	}
}

// PacketSink is a network interface receive path: it reassembles per-VC
// flit streams into packets and hands completed packets to a callback.
// It returns credits to the upstream router output with a one-cycle
// delay.
type PacketSink struct {
	name    string
	credits router.CreditSink
	// OnPacket is called when a packet's tail flit arrives; now is the
	// tail's arrival stamp.
	OnPacket func(p *flit.Packet, now uint64)

	open []*flit.Packet // per VC, grown on first use; nil = no open packet
}

// NewPacketSink creates a sink returning credits to cs (may be nil for
// tests). onPacket may be nil.
func NewPacketSink(name string, cs router.CreditSink, onPacket func(p *flit.Packet, now uint64)) *PacketSink {
	return &PacketSink{name: name, credits: cs, OnPacket: onPacket}
}

// Reset rewinds the sink to its freshly constructed state, dropping any
// partially reassembled packets. The credit sink and OnPacket callback
// stay attached.
func (k *PacketSink) Reset() {
	clear(k.open)
}

// PutFlit implements router.Sink.
func (k *PacketSink) PutFlit(f *flit.Flit, readyAt uint64) {
	for f.VC >= len(k.open) {
		k.open = append(k.open, nil)
	}
	if cur := k.open[f.VC]; cur != nil {
		if f.Packet != cur {
			panic(fmt.Sprintf("link: sink %q: VC %d interleaved packets %v and %v", k.name, f.VC, cur, f.Packet))
		}
		if f.IsHead() {
			panic(fmt.Sprintf("link: sink %q: duplicate head on VC %d", k.name, f.VC))
		}
	} else {
		if !f.IsHead() {
			panic(fmt.Sprintf("link: sink %q: stray %v on VC %d with no open packet", k.name, f, f.VC))
		}
		k.open[f.VC] = f.Packet
	}
	if k.credits != nil {
		k.credits.PutCredit(f.VC, readyAt+1)
	}
	if f.IsTail() {
		k.open[f.VC] = nil
		if k.OnPacket != nil {
			k.OnPacket(f.Packet, readyAt)
		}
	}
}
