// Package flit defines the units of data moved by the E-RAPID models:
// packets (the end-to-end unit, and the unit of optical transmission) and
// flits (the unit of electrical switching and buffering).
//
// The split mirrors the paper (Sec. 2.1): "Flits from different nodes are
// interleaved in the electrical domain using virtual channels whereas
// packets from different boards are interleaved in the optical domain."
package flit

import "fmt"

// Kind distinguishes flit positions within a packet.
type Kind uint8

const (
	// Head carries routing information and allocates a VC downstream.
	Head Kind = iota
	// Body is a payload flit.
	Body
	// Tail releases the VC downstream. Single-flit packets are HeadTail.
	Tail
	// HeadTail is a single-flit packet.
	HeadTail
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Head:
		return "head"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case HeadTail:
		return "headtail"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// PacketID uniquely identifies a packet within a simulation run.
type PacketID uint64

// Packet is the end-to-end data unit. One packet is Size bytes and is
// switched electrically as Flits() flits of FlitBytes each.
type Packet struct {
	ID  PacketID
	Src int // source node (global id)
	Dst int // destination node (global id)

	SrcBoard int
	DstBoard int

	// Size is the packet length in bytes (default 64 in the paper).
	Size int
	// FlitBytes is the flit width in bytes (8 in the paper: 8 flits/packet).
	FlitBytes int

	// InjectedAt is the cycle the packet entered the source queue.
	InjectedAt uint64
	// NetworkAt is the cycle the head flit left the source queue.
	NetworkAt uint64
	// ReceivedAt is the cycle the tail arrived at the destination node.
	ReceivedAt uint64

	// Labeled marks packets injected during the measurement interval; only
	// labeled packets contribute to latency statistics (paper Sec. 4).
	Labeled bool

	// slab is the packet's flit storage, filled by Flitize. It is reused
	// every time the packet is (re-)serialized onto a link, and survives
	// packet recycling, so the steady-state flit path allocates nothing.
	slab []Flit
}

// Reset clears every packet field for reuse from a free list, keeping
// the flit slab's backing storage so recycled packets serialize without
// allocating.
func (p *Packet) Reset() {
	slab := p.slab
	*p = Packet{slab: slab}
}

// Flits returns the number of flits in the packet (at least 1).
func (p *Packet) Flits() int {
	if p.Size <= 0 || p.FlitBytes <= 0 {
		return 1
	}
	n := (p.Size + p.FlitBytes - 1) / p.FlitBytes
	if n < 1 {
		n = 1
	}
	return n
}

// Bits returns the packet length in bits.
func (p *Packet) Bits() int { return p.Size * 8 }

// Latency returns the injection-to-delivery latency in cycles. It is only
// meaningful after delivery.
func (p *Packet) Latency() uint64 { return p.ReceivedAt - p.InjectedAt }

// NetworkLatency returns the network traversal latency (excluding source
// queueing) in cycles.
func (p *Packet) NetworkLatency() uint64 { return p.ReceivedAt - p.NetworkAt }

// String implements fmt.Stringer.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %d->%d (%dB)", p.ID, p.Src, p.Dst, p.Size)
}

// Flit is the electrical switching unit.
type Flit struct {
	Kind   Kind
	Packet *Packet
	// Index is the flit's position within the packet, 0-based.
	Index int
	// VC is the virtual channel currently occupied (set hop by hop).
	VC int
}

// IsHead reports whether the flit opens a packet.
func (f *Flit) IsHead() bool { return f.Kind == Head || f.Kind == HeadTail }

// IsTail reports whether the flit closes a packet.
func (f *Flit) IsTail() bool { return f.Kind == Tail || f.Kind == HeadTail }

// String implements fmt.Stringer.
func (f *Flit) String() string {
	return fmt.Sprintf("%s[%d] of %s", f.Kind, f.Index, f.Packet)
}

// fill writes the packet's flit sequence into fs (len(fs) == p.Flits()).
func fill(p *Packet, fs []Flit) {
	n := len(fs)
	for i := 0; i < n; i++ {
		k := Body
		switch {
		case n == 1:
			k = HeadTail
		case i == 0:
			k = Head
		case i == n-1:
			k = Tail
		}
		fs[i] = Flit{Kind: k, Packet: p, Index: i}
	}
}

// Flitize fills the packet's internal flit slab and returns it. The slab
// is owned by the packet: every call reuses the same backing array, so a
// packet may be flitized again only after all flits from the previous
// serialization have been consumed downstream (true for each hop of the
// E-RAPID pipeline: a hop's flits are reassembled into the whole packet
// before the next hop serializes it). This is the allocation-free fast
// path; use Explode when independent flit objects are needed.
func (p *Packet) Flitize() []Flit {
	n := p.Flits()
	if cap(p.slab) < n {
		p.slab = make([]Flit, n)
	}
	fs := p.slab[:n]
	fill(p, fs)
	return fs
}

// Explode converts a packet into a freshly allocated flit sequence,
// independent of the packet's internal slab.
func Explode(p *Packet) []*Flit {
	n := p.Flits()
	backing := make([]Flit, n)
	fill(p, backing)
	fs := make([]*Flit, n)
	for i := range backing {
		fs[i] = &backing[i]
	}
	return fs
}
