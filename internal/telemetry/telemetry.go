// Package telemetry is the unified observability layer of the E-RAPID
// simulator: a structured event stream covering the packet lifecycle,
// the Lock-Step protocol, DPM level transitions and DBR channel moves,
// plus a metrics registry of counters, gauges and ring-buffered
// per-window time series.
//
// The design goal is zero cost when disabled: instrumented components
// hold a single Sink interface value and emit nothing — not even an
// allocation — when it is nil. Events are small value structs; every
// provided Sink (Recorder, JSONL) stores or encodes them without
// per-event heap allocation in steady state.
//
// Exporters turn a recorded run into external tooling formats: JSONL
// (one event per line, stable schema, see AppendEvent) and the Chrome
// trace_event JSON understood by Perfetto and chrome://tracing
// (WriteChromeTrace).
package telemetry

import "fmt"

// Kind classifies telemetry events. The packet-lifecycle kinds and
// ChannelReassign come first, so Kind <= ChannelReassign selects a
// packet-journey view.
type Kind uint8

const (
	// PacketInject: the packet entered its source NIC queue.
	PacketInject Kind = iota
	// PacketNetEnter: the head flit left the source queue into the IBI.
	PacketNetEnter
	// PacketLaserEnqueue: the reassembled packet joined a laser transmit
	// queue.
	PacketLaserEnqueue
	// PacketLaserTransmit: optical serialization started.
	PacketLaserTransmit
	// PacketOpticalArrive: the packet completed the optical hop.
	PacketOpticalArrive
	// PacketDeliver: the tail flit reached the destination node.
	PacketDeliver
	// ChannelReassign: channel (Dest, Wavelength) moved holders
	// (From → To); Board carries the new holder.
	ChannelReassign
	// LaserLevel: laser (Board, Wavelength → Dest) changed its DPM
	// operating level From → To (0 = Off, so From==0 is a wake/laser-on
	// and To==0 is a shutdown/laser-off).
	LaserLevel
	// StageEnter: board Board's RC entered the Lock-Step stage named by
	// Label ("power-request", "link-request", "reconfigure", ...).
	StageEnter
	// PhaseChange: the measurement phase machine advanced; Label is the
	// new phase ("warmup", "measure", "drain", "done").
	PhaseChange
	// LaserFail: fault injection failed laser (Board, Wavelength → Dest);
	// Label carries the fault kind ("kill", "degrade", "stick").
	LaserFail
	// LaserRestore: a transiently failed or stuck laser recovered; Label
	// is "restore" or "unstick".
	LaserRestore
	// CtrlDrop: a control-ring message from RC Board to RC Dest was
	// dropped by fault injection; Label is "outage" or "drop".
	CtrlDrop
	// CtrlDelay: a control-ring message from RC Board to RC Dest was
	// delayed by fault injection.
	CtrlDelay
	// PacketDropFault: packet Packet (Board → Dest) was discarded at a
	// permanently failed laser.
	PacketDropFault

	numKinds
)

// kindNames are the JSONL/string names.
var kindNames = [numKinds]string{
	PacketInject:        "inject",
	PacketNetEnter:      "net-enter",
	PacketLaserEnqueue:  "laser-enqueue",
	PacketLaserTransmit: "laser-transmit",
	PacketOpticalArrive: "optical-arrive",
	PacketDeliver:       "deliver",
	ChannelReassign:     "reassign",
	LaserLevel:          "laser-level",
	StageEnter:          "stage",
	PhaseChange:         "phase",
	LaserFail:           "laser-fail",
	LaserRestore:        "laser-restore",
	CtrlDrop:            "ctrl-drop",
	CtrlDelay:           "ctrl-delay",
	PacketDropFault:     "drop-fault",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString parses a Kind name as emitted in JSONL.
func KindFromString(s string) (Kind, error) {
	for k := Kind(0); k < numKinds; k++ {
		if kindNames[k] == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("telemetry: unknown event kind %q", s)
}

// HasTransition reports whether a kind carries meaningful From/To
// fields (level transitions and holder moves).
func (k Kind) HasTransition() bool { return k == ChannelReassign || k == LaserLevel }

// Event is one telemetry record. It is a flat value struct so emitting
// one does not allocate. Fields that do not apply to a kind hold -1
// (Board, Wavelength, Dest), 0 (Packet, From, To) or "" (Label).
type Event struct {
	// Cycle is the simulation cycle the event occurred on.
	Cycle uint64
	// Kind classifies the event.
	Kind Kind
	// Packet is the packet id for packet-lifecycle events (0 otherwise).
	Packet uint64
	// Board is the primary board: the source board for packet/laser
	// events, the RC board for stage events, the new holder for
	// reassignments. -1 when not applicable.
	Board int
	// Wavelength is the optical channel index (1..B-1), -1 when not
	// applicable.
	Wavelength int
	// Dest is the destination board of the optical element involved, -1
	// when not applicable.
	Dest int
	// From and To carry transitions: DPM ladder levels for LaserLevel,
	// holder boards for ChannelReassign.
	From, To int
	// Label names stages and phases.
	Label string
}

// Sink consumes telemetry events. Implementations must be cheap: they
// are called synchronously from the simulation hot path. A nil Sink
// held by an instrumented component means telemetry is disabled for it;
// the component must guard emissions with a nil check and do nothing
// else.
type Sink interface {
	Emit(ev Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit implements Sink.
func (f SinkFunc) Emit(ev Event) { f(ev) }

// teeSink fans events out to several sinks in order.
type teeSink []Sink

// Emit implements Sink.
func (t teeSink) Emit(ev Event) {
	for _, s := range t {
		s.Emit(ev)
	}
}

// Tee returns a Sink that forwards every event to each given sink in
// order. Nil sinks are skipped; a tee of one sink is that sink.
func Tee(sinks ...Sink) Sink {
	out := make(teeSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// Recorder is a bounded ring-buffer Sink. Recording is O(1) and
// allocation-free once the ring is built; a full ring overwrites the
// oldest events. Per-kind counts include overwritten events.
type Recorder struct {
	ring   []Event
	next   int
	filled bool
	counts [numKinds]uint64
	// Filter, when non-nil, drops events for which it returns false
	// before they reach the ring or the counts.
	Filter func(Event) bool
}

// NewRecorder creates a recorder holding up to capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		panic(fmt.Sprintf("telemetry: recorder capacity %d < 1", capacity))
	}
	return &Recorder{ring: make([]Event, capacity)}
}

// Emit implements Sink.
func (r *Recorder) Emit(ev Event) {
	if r.Filter != nil && !r.Filter(ev) {
		return
	}
	if ev.Kind < numKinds {
		r.counts[ev.Kind]++
	}
	r.ring[r.next] = ev
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.filled = true
	}
}

// Count returns how many events of a kind were recorded (including ones
// already overwritten).
func (r *Recorder) Count(k Kind) uint64 {
	if k >= numKinds {
		return 0
	}
	return r.counts[k]
}

// Total returns how many events were recorded across all kinds.
func (r *Recorder) Total() uint64 {
	var n uint64
	for _, c := range r.counts {
		n += c
	}
	return n
}

// Events returns the buffered events in record order.
func (r *Recorder) Events() []Event {
	if !r.filled {
		out := make([]Event, r.next)
		copy(out, r.ring[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}
