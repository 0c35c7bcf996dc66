// Package optical models the Scalable Remote Optical Super-Highway (SRS)
// of E-RAPID: per-board transmitters built from arrays of same-wavelength
// lasers (one laser per destination port, Fig. 2b), passive couplers that
// merge same-numbered ports onto per-destination fibers, per-wavelength
// receivers, and the per-laser bit-rate/voltage operating points of the
// paper's DPM scheme.
//
// The central object is the Fabric, which owns the channel table: an
// incoming channel (d, w) — wavelength w arriving at board d — is driven
// by exactly one source board at a time, its holder. Statically the
// holder is the RWA owner (s with w = (s-d) mod B); Dynamic Bandwidth
// Re-allocation moves holders. The single-holder-per-channel field is the
// model of the physical constraint that two lasers must not light the
// same wavelength onto the same fiber.
//
// Packets are the optical transmission unit (paper Sec. 2.1): the
// transmitter reassembles the electrical flit stream per VC, queues whole
// packets per laser, and serializes them at the laser's current bit rate.
package optical

import (
	"fmt"
	"math/bits"

	"repro/internal/flit"
	"repro/internal/power"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Config parameterizes the optical fabric.
type Config struct {
	// CycleNS is the router clock period in nanoseconds (2.5 at 400 MHz).
	CycleNS float64
	// PropCycles is the fiber propagation delay in cycles.
	PropCycles uint64
	// RelockCycles is the link-disable time after a bit-rate transition
	// (65 cycles in the paper: CDR relock + voltage transition).
	RelockCycles uint64
	// QueueCap is the per-laser transmit queue capacity in packets.
	QueueCap int
	// VCs is the number of electrical VCs feeding each transmitter.
	VCs int
	// FlitsPerPacket sizes the per-VC reassembly buffers.
	FlitsPerPacket int
	// Ladder is the set of link operating points; nil selects the paper's
	// three-level ladder (2.5/3.3/5 Gbps).
	// Every laser starts at the ladder top, where non-power-aware networks
	// keep it.
	Ladder *power.Ladder
	// PortRadius limits each transmitter's laser array to destinations
	// within the given ring distance of its static destination (the
	// paper's "cost-effective design alternatives that provide limited
	// flexibility for reconfigurability"). 0 means a full array (a laser
	// per destination port, Fig. 2b); 1 means the static port plus its two
	// ring neighbours; and so on. Channels can only be re-allocated to
	// boards whose arrays have the required port.
	PortRadius int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.CycleNS <= 0:
		return fmt.Errorf("optical: CycleNS = %v, need > 0", c.CycleNS)
	case c.QueueCap < 1:
		return fmt.Errorf("optical: QueueCap = %d, need >= 1", c.QueueCap)
	case c.VCs < 1:
		return fmt.Errorf("optical: VCs = %d, need >= 1", c.VCs)
	case c.FlitsPerPacket < 1:
		return fmt.Errorf("optical: FlitsPerPacket = %d, need >= 1", c.FlitsPerPacket)
	case c.PortRadius < 0:
		return fmt.Errorf("optical: PortRadius must be >= 0 (0 = full array)")
	}
	return nil
}

// normalize fills the ladder default.
func (c Config) normalize() Config {
	if c.Ladder == nil {
		c.Ladder = power.PaperLadder()
	}
	return c
}

// Channel is one incoming wavelength at one destination board: the fiber
// segment from the couplers into receiver (d, w).
type Channel struct {
	holder    int
	busyUntil uint64
}

// Holder returns the board currently driving the channel.
func (c *Channel) Holder() int { return c.holder }

// Busy reports whether a packet is being serialized onto the channel.
func (c *Channel) Busy(now uint64) bool { return c.busyUntil > now }

// Laser is one element of a transmitter's laser array: wavelength w at
// board s, aimed at destination board d through port d.
//
// Lasers are materialised on first use. Of the B(B-1)² populated lasers
// at most B(B-1) can be lit at once (one per channel), so a laser only
// exists once its state can differ from the defaults: when it holds a
// channel, when a packet is queued on it, or when a fault strikes it.
// Until then Fabric.Laser returns nil for it and readers take the
// defaults; the fault-state accessors (Failed, PermanentlyFailed, Stuck)
// accept the nil *Laser and report a healthy laser.
//
// Lasers are ticked lazily: only lasers with queued packets or an
// in-flight serialization sit on the fabric's active list and are
// visited each cycle. An idle laser's window statistics are batched in
// when it reactivates (or on FlushStats) — an idle span of k cycles is
// exactly k not-busy LinkWin ticks and k empty-queue BufWin samples, so
// the windows stay integer-exact. Its supply power while lit is carried
// by the fabric's idle-laser aggregate (see Fabric.idleLitMW).
type Laser struct {
	s, w, d int
	ladder  *power.Ladder
	fab     *Fabric
	ch      *Channel // the channel (d, w) this laser would light

	level         int    // index into ladder; 0 = Off
	disabledUntil uint64 // CDR relock / voltage transition window
	busyUntil     uint64

	queue []*flit.Packet

	// LinkWin tracks Link_util: cycles spent transmitting / window.
	LinkWin stats.Window
	// BufWin tracks Buffer_util: queue occupancy / capacity per cycle.
	BufWin stats.Window

	transitions uint64
	sentPackets uint64
	// busyCycles counts cycles spent serializing, cumulatively. Idle
	// (off-list) lasers are never busy, so the count needs no batching.
	busyCycles uint64

	// failed marks the laser unable to transmit (fault injection). A
	// permFailed laser additionally drops packets routed to it; a
	// transient failure holds its queue until RestoreLaser.
	failed     bool
	permFailed bool
	// stuck pins the laser at its current level: SetLevel becomes a
	// no-op (a DPM actuator fault).
	stuck bool
	// dropWin counts packets dropped at this laser since the RC last
	// snapshotted it; a non-zero count is the control plane's signal
	// that the flow needs a surviving channel.
	dropWin uint64

	active      bool    // on the fabric's active list
	statsAt     uint64  // cycle through which LinkWin/BufWin are accounted
	idleContrib float64 // mW currently counted in fab.idleLitMW
	key         int     // canonical (s,w,d) order for the active list
	next        *Laser  // the next materialised laser of transmitter (s, w), by ascending d
}

// Dest returns the laser's destination board.
func (l *Laser) Dest() int { return l.d }

// Level returns the laser's operating level (a ladder index; 0 = Off).
func (l *Laser) Level() int { return l.level }

// Operating reports whether the laser is at an operating level.
func (l *Laser) Operating() bool { return l.ladder.Operating(l.level) }

// QueueLen returns the number of packets waiting on the laser.
func (l *Laser) QueueLen() int { return len(l.queue) }

// Busy reports whether the laser is serializing a packet.
func (l *Laser) Busy(now uint64) bool { return l.busyUntil > now }

// Disabled reports whether the laser is in a relock window.
func (l *Laser) Disabled(now uint64) bool { return l.disabledUntil > now }

// Transitions returns the number of level changes (including wake-ups).
func (l *Laser) Transitions() uint64 { return l.transitions }

// Sent returns the number of packets transmitted.
func (l *Laser) Sent() uint64 { return l.sentPackets }

// Failed reports whether the laser is currently failed (fault injection).
func (l *Laser) Failed() bool { return l != nil && l.failed }

// PermanentlyFailed reports whether the laser is failed for good: it
// drops packets routed to it instead of queueing them.
func (l *Laser) PermanentlyFailed() bool { return l != nil && l.permFailed }

// Stuck reports whether the laser's DPM level is pinned (SetLevel is a
// no-op).
func (l *Laser) Stuck() bool { return l != nil && l.stuck }

// SetLevel changes the operating point, paying the relock penalty when
// the level actually changes. Changing to Off does not pay a penalty
// (the link is simply shut down); waking from Off does. A stuck laser
// (fault injection) ignores the request entirely.
func (l *Laser) SetLevel(level int, now, relockCycles uint64) {
	if !l.ladder.Valid(level) {
		panic(fmt.Sprintf("optical: laser (%d,λ%d→%d): invalid level %d", l.s, l.w, l.d, level))
	}
	if l.stuck || level == l.level {
		return
	}
	from := l.level
	l.transitions++
	l.level = level
	if l.ladder.Operating(level) {
		// Frequency/voltage transition or wake-up: the transmitter injects
		// the bit-rate control packet and disables the link while the
		// receiver CDR re-locks.
		l.disabledUntil = now + relockCycles
	}
	if l.fab != nil {
		l.fab.refreshIdle(l)
		if l.fab.sink != nil {
			l.fab.sink.Emit(telemetry.Event{Cycle: now, Kind: telemetry.LaserLevel, Board: l.s, Wavelength: l.w, Dest: l.d, From: from, To: level})
		}
	}
}

// DeliverFunc receives a packet that completed optical transmission on
// channel (d, w) at the given arrival cycle.
type DeliverFunc func(p *flit.Packet, now uint64)

// Fabric is the complete optical subsystem of one cluster.
type Fabric struct {
	top *topology.Topology
	cfg Config

	channels [][]*Channel // [d][w], w in 1..B-1 (index w, slot 0 unused)
	// heads[s*B+w] is the first materialised laser of transmitter (s, w);
	// the rest follow through Laser.next in ascending d, so walking a
	// board's heads in w order visits its lasers in canonical order. The
	// structs live in the board's state (boardState.chunks).
	heads []*Laser
	// populated counts the lasers the arrays are built with, materialised
	// or not.
	populated int
	txs       []*Transmitter

	deliver [][]DeliverFunc // [d][w]

	// boards holds the per-board mutable tick state (active and
	// deferred-deactivation lists), one struct per board.
	// boards[s].active holds, in canonical (w, d) order, every laser of
	// board s with queued packets or an in-flight serialization. Only
	// these are ticked. Iterating boards in ascending order visits lasers
	// in exactly the canonical (s, w, d) order the exhaustive scan used.
	boards []boardState
	// idleLitMW is the summed supply power of lit, operating lasers that
	// are NOT on the active list; it is added to the meter in one call per
	// metered cycle so idle lasers need no per-cycle visit.
	idleLitMW float64

	// delHeap is the min-heap (by arrival, then push order) of in-flight
	// optical transmissions awaiting delivery; DeliverDue drains it.
	delHeap []delivery
	delSeq  uint64

	meter        *power.Meter
	meterEnabled bool
	nextTick     uint64 // the cycle after the last TickBoards (0 before the first)

	// autoWake, when an operating level, re-enables Off lasers as soon as
	// a packet is queued on them (the paper's DLS "turns up the link when
	// needed"), paying the relock penalty.
	autoWake int
	wakes    uint64

	// sink receives the fabric's telemetry events (laser enqueue and
	// transmit, level transitions, channel reassignments); nil disables
	// them.
	sink telemetry.Sink

	// dropHook receives packets discarded because their laser is
	// permanently failed; nil (the healthy default) discards silently.
	dropHook DeliverFunc
}

// boardState is one board's per-tick mutable list state: the active
// lasers and the lasers leaving the active list within a Tick (their
// idle-aggregate refresh is deferred past the cycle's idle-power
// sample).
type boardState struct {
	active []*Laser
	deact  []*Laser
	// txPending has bit w-1 up exactly while transmitter w buffers a
	// complete packet whose tail has matured (holdsPacket); tickBoardTx
	// walks it. An unmatured tail sleeps on txWheel.
	txPending router.ActiveSet
	txWheel   router.Wheel
	// chunks holds the board's materialised lasers, used slots in all;
	// chunks never move once allocated, so *Laser stays valid.
	chunks [][]Laser
	used   int
	// winFrom is the cycle the board's current reconfiguration window
	// began (its last TakeWindows; 0 before the first). A laser
	// materialised mid-window accounts its statistics from here, as it
	// would have had it existed all along.
	winFrom uint64
}

// slot returns the board's i-th laser slot (chunks are of equal length).
func (bs *boardState) slot(i int) *Laser {
	n := len(bs.chunks[0])
	return &bs.chunks[i/n][i%n]
}

// SetDropHook registers the accounting path for packets discarded at
// permanently failed lasers (fault injection). Pass nil to detach.
func (f *Fabric) SetDropHook(fn DeliverFunc) { f.dropHook = fn }

// SetSink attaches a telemetry sink (nil detaches). Implementations
// must not mutate the fabric.
func (f *Fabric) SetSink(sink telemetry.Sink) { f.sink = sink }

// SetAutoWake enables wake-on-demand for Off lasers at the given ladder
// level. Pass 0 (Off) to disable.
func (f *Fabric) SetAutoWake(level int) { f.autoWake = level }

// Wakes returns the number of auto-wake events.
func (f *Fabric) Wakes() uint64 { return f.wakes }

// NewFabric builds the optical fabric for one cluster of the topology:
// O(B²) channels and transmitters, and only the B(B-1) lasers of the
// static RWA owners; every other laser is materialised on first use.
// The engine parameter is unused (deliveries are not engine events); it
// stays because the frozen benchmark/ harness passes one.
func NewFabric(top *topology.Topology, _ *sim.Engine, cfg Config) (*Fabric, error) {
	cfg = cfg.normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := top.Boards()
	f := &Fabric{top: top, cfg: cfg, meter: power.NewMeter(cfg.CycleNS)}
	f.boards = make([]boardState, b)
	for s := range f.boards {
		f.boards[s].txPending = router.NewActiveSet(b - 1)
	}
	f.channels = make([][]*Channel, b)
	f.deliver = make([][]DeliverFunc, b)
	for d := 0; d < b; d++ {
		// One padded slab per destination: pointer identity stays stable
		// (callers hold *Channel) while the structs themselves are
		// contiguous and line-aligned relative to each other.
		chSlab := make([]Channel, b)
		f.channels[d] = make([]*Channel, b)
		f.deliver[d] = make([]DeliverFunc, b)
		for w := 1; w < b; w++ {
			ch := &chSlab[w]
			ch.holder = top.StaticOwner(d, w)
			f.channels[d][w] = ch
		}
	}
	// Every board's array is the same up to rotation.
	for w := 1; w < b; w++ {
		for d := 0; d < b; d++ {
			if f.CanHold(0, w, d) {
				f.populated += b
			}
		}
	}
	f.heads = make([]*Laser, b*b)
	f.materialiseStatic()
	for s := 0; s < b; s++ {
		// Per-board transmitter slabs: a board's b-1 transmitters are
		// walked together every cycle.
		txSlab := make([]Transmitter, b-1)
		for w := 1; w < b; w++ {
			tx := &txSlab[w-1]
			tx.init(f, s, w)
			f.txs = append(f.txs, tx)
		}
	}
	return f, nil
}

// Reset returns the fabric to its just-constructed state so a completed
// run's fabric can host a fresh one without rebuilding the channel,
// laser and transmitter slabs: channels revert to their static RWA
// owners, only the static owners' lasers stay materialised (at the
// default level with empty queues and zeroed statistics), transmitters
// revert to empty reassembly buffers, and the delivery heap, power meter
// and idle aggregate to zero. Attached sink and drop hook are detached
// (the next run re-attaches its own). All slab, laser chunk and queue
// backing arrays are retained, so the reset fabric runs without
// reallocating its steady-state structures.
func (f *Fabric) Reset() {
	b := f.top.Boards()
	for d := 0; d < b; d++ {
		for w := 1; w < b; w++ {
			ch := f.channels[d][w]
			ch.holder = f.top.StaticOwner(d, w)
			ch.busyUntil = 0
		}
	}
	for s := range f.boards {
		bs := &f.boards[s]
		for i := range bs.active {
			bs.active[i] = nil
		}
		bs.active = bs.active[:0]
		for i := range bs.deact {
			bs.deact[i] = nil
		}
		bs.deact = bs.deact[:0]
		clear(bs.txPending)
		bs.txWheel.Reset()
		// Release every packet still queued; the slots and their queue
		// backing arrays are reused by the next materialisations.
		for i := range bs.used {
			clear(bs.slot(i).queue)
		}
		bs.used = 0
		bs.winFrom = 0
	}
	clear(f.heads)
	f.idleLitMW = 0
	f.materialiseStatic()
	for _, tx := range f.txs {
		for v := range tx.vcs {
			vc := &tx.vcs[v]
			clear(vc.entries)
			vc.entries = vc.entries[:0]
		}
	}
	for i := range f.delHeap {
		f.delHeap[i] = delivery{}
	}
	f.delHeap = f.delHeap[:0]
	f.delSeq = 0
	f.nextTick = 0
	f.meter.Reset()
	f.meterEnabled = false
	f.autoWake = 0
	f.wakes = 0
	f.sink = nil
	f.dropHook = nil
}

// materialiseStatic materialises the static owners' lasers, the lit
// ones, and folds their supply power into the idle aggregate in
// canonical (s, w, d) order. The other lasers are dark and add nothing,
// so the float sum is the one an exhaustive scan would produce.
func (f *Fabric) materialiseStatic() {
	b := f.top.Boards()
	for s := 0; s < b; s++ {
		for w := 1; w < b; w++ {
			f.refreshIdle(f.laser(s, w, ((s-w)%b+b)%b))
		}
	}
}

// laser returns laser (s, w, d), materialising it with the default state
// first if it does not exist yet. The caller guarantees CanHold(s, w, d).
// Materialisation adds no supply power (a laser that drives a channel is
// already materialised).
func (f *Fabric) laser(s, w, d int) *Laser {
	p := f.find(s, w, d)
	if l := *p; l != nil && l.d == d {
		return l
	}
	b := f.top.Boards()
	bs := &f.boards[s]
	if n := max(b-1, 16); bs.used == len(bs.chunks)*n {
		bs.chunks = append(bs.chunks, make([]Laser, n))
	}
	l := bs.slot(bs.used)
	bs.used++
	*l = Laser{
		s: s, w: w, d: d,
		ladder: f.cfg.Ladder, fab: f, ch: f.channels[d][w],
		level:   f.cfg.Ladder.Top(),
		queue:   l.queue[:0],
		statsAt: bs.winFrom,
		key:     (s*b+w)*b + d,
		next:    *p,
	}
	*p = l
	return l
}

// litIdleMW returns the supply power an idle laser currently draws: its
// level's power when it is lit (drives its channel) and operating, and
// not already accounted per-cycle via the active list.
func (f *Fabric) litIdleMW(l *Laser) float64 {
	if l.active || l.failed || !l.ladder.Operating(l.level) || l.ch.holder != l.s {
		return 0
	}
	return f.cfg.Ladder.MW(l.level)
}

// refreshIdle re-derives one laser's contribution to the idle-laser
// supply aggregate after any change to its level, holder or active
// status.
func (f *Fabric) refreshIdle(l *Laser) {
	c := f.litIdleMW(l)
	if c == l.idleContrib {
		return
	}
	f.idleLitMW += c - l.idleContrib
	l.idleContrib = c
}

// syncStats fills in the idle span [l.statsAt, now) of a laser's window
// statistics: an inactive laser is never busy and holds no queued
// packets, so the batch update is integer-exact with per-cycle ticking.
func (f *Fabric) syncStats(l *Laser, now uint64) {
	if now > l.statsAt {
		k := now - l.statsAt
		l.LinkWin.AddN(0, k)
		l.BufWin.AddN(0, k*uint64(f.cfg.QueueCap))
		l.statsAt = now
	}
}

// FlushStats brings every materialised laser's LinkWin/BufWin up to
// date through cycle now-1. Callers that read or reset the windows
// directly (tests) must flush first; active lasers are already current.
// The RC snapshot uses TakeWindows instead, which flushes one board.
func (f *Fabric) FlushStats(now uint64) {
	for _, l := range f.heads {
		for ; l != nil; l = l.next {
			if !l.active {
				f.syncStats(l, now)
			}
		}
	}
}

// WindowStats is one laser's statistics over a closed reconfiguration
// window.
type WindowStats struct {
	W, D     int
	LinkUtil float64 // Link_util: share of the window spent transmitting
	BufUtil  float64 // Buffer_util: mean queue occupancy / capacity
	QueueLen int     // packets queued at the window's close
	// Dropped counts packets dropped at the laser over the window (always
	// 0 without fault injection).
	Dropped uint64
}

// TakeWindows closes board s's reconfiguration window at cycle now. It
// brings the board's window statistics up to date through now-1, appends
// one WindowStats per materialised laser to buf in canonical (w, d)
// order, and starts every laser's next window at now. A laser missing
// from buf was still implicit and has the default statistics (all zero);
// one materialised later starts its window at now too. Sync is additive
// and integer-exact, so closing boards independently (each RC its own)
// yields the window values a global flush would.
func (f *Fabric) TakeWindows(s int, now uint64, buf []WindowStats) []WindowStats {
	b := f.top.Boards()
	for _, l := range f.heads[s*b+1 : (s+1)*b] {
		for ; l != nil; l = l.next {
			if !l.active {
				f.syncStats(l, now)
			}
			buf = append(buf, WindowStats{
				W: l.w, D: l.d,
				LinkUtil: l.LinkWin.Utilization(),
				BufUtil:  l.BufWin.Utilization(),
				QueueLen: len(l.queue),
				Dropped:  l.dropWin,
			})
			l.LinkWin.Reset()
			l.BufWin.Reset()
			l.dropWin = 0
		}
	}
	f.boards[s].winFrom = now
	return buf
}

// AppendHeldLasers appends to buf the lasers of transmitter (s, w) that
// drive their channel, in ascending destination order, and returns it.
func (f *Fabric) AppendHeldLasers(buf []*Laser, s, w int) []*Laser {
	for l := f.heads[s*f.top.Boards()+w]; l != nil; l = l.next {
		if l.ch.holder == s {
			buf = append(buf, l)
		}
	}
	return buf
}

// activateLaser puts a laser on its board's active list (no-op when
// already there), first batching in the idle span it skipped. Binary
// insertion keeps each board's list in canonical (w, d) order so active
// lasers are visited in exactly the order the exhaustive scan used.
func (f *Fabric) activateLaser(l *Laser, now uint64) {
	if l.active {
		return
	}
	f.syncStats(l, now)
	l.active = true
	bs := &f.boards[l.s]
	lst := bs.active
	lo, hi := 0, len(lst)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lst[mid].key < l.key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	lst = append(lst, nil)
	copy(lst[lo+1:], lst[lo:])
	lst[lo] = l
	bs.active = lst
	f.refreshIdle(l)
}

// Topology returns the fabric's topology.
func (f *Fabric) Topology() *topology.Topology { return f.top }

// Config returns the fabric's configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Channel returns the incoming channel (d, w).
func (f *Fabric) Channel(d, w int) *Channel { return f.channels[d][w] }

// Laser returns laser (s, w, d), or nil when it is not materialised:
// s == d, the port is not populated (PortRadius-limited arrays; see
// CanHold), or the laser still has its default state.
func (f *Fabric) Laser(s, w, d int) *Laser {
	if l := *f.find(s, w, d); l != nil && l.d == d {
		return l
	}
	return nil
}

// find returns the link of transmitter (s, w)'s laser list that holds
// laser (s, w, d), or where it would be inserted.
func (f *Fabric) find(s, w, d int) **Laser {
	p := &f.heads[s*f.top.Boards()+w]
	for *p != nil && (*p).d < d {
		p = &(*p).next
	}
	return p
}

// CanHold reports whether board s could drive channel (d, w): its
// transmitter w must have a laser aimed at d, i.e. d is another board
// within PortRadius of the transmitter's static destination.
func (f *Fabric) CanHold(s, w, d int) bool {
	b := f.top.Boards()
	return s != d && (f.cfg.PortRadius == 0 || ringDistance(d, ((s-w)%b+b)%b, b) <= f.cfg.PortRadius)
}

// ringDistance is the circular distance between boards a and b.
func ringDistance(a, b, n int) int {
	d := ((a-b)%n + n) % n
	if d > n-d {
		d = n - d
	}
	return d
}

// Transmitter returns transmitter w at board s.
func (f *Fabric) Transmitter(s, w int) *Transmitter {
	return f.txs[s*(f.top.Boards()-1)+(w-1)]
}

// SetDeliver registers the receive path for channel (d, w).
func (f *Fabric) SetDeliver(d, w int, fn DeliverFunc) { f.deliver[d][w] = fn }

// Meter returns the fabric's power meter.
func (f *Fabric) Meter() *power.Meter { return f.meter }

// SupplyBoundMW returns the fabric's supply-power ceiling: every
// populated laser lit at the ladder top. No schedule — and no
// reconfiguration policy — can average above it, which makes it the
// universal upper bound the conservation and conformance suites check
// AvgSupplyMW against.
func (f *Fabric) SupplyBoundMW() float64 {
	return float64(f.populated) * f.cfg.Ladder.MW(f.cfg.Ladder.Top())
}

// EnableMetering starts (or stops) power integration; the measurement
// driver enables it only for the measurement interval.
func (f *Fabric) EnableMetering(on bool) { f.meterEnabled = on }

// Reassign atomically moves channel (d, w) to a new holder. The departing
// holder's laser must be idle with an empty queue; callers (the DBR
// policy) guarantee this by only re-allocating under-utilized channels.
// The acquiring laser starts at the ladder top (acquired channels serve
// congested flows) with a relock window.
func (f *Fabric) Reassign(d, w, newHolder int, now uint64) error {
	ch := f.channels[d][w]
	if newHolder == d {
		return fmt.Errorf("optical: cannot assign channel (%d,λ%d) to its own destination", d, w)
	}
	if newHolder == ch.holder {
		return nil
	}
	if !f.CanHold(newHolder, w, d) {
		return fmt.Errorf("optical: board %d has no laser for channel (%d,λ%d) (PortRadius-limited array)", newHolder, d, w)
	}
	old := f.Laser(ch.holder, w, d)
	if len(old.queue) > 0 {
		return fmt.Errorf("optical: channel (%d,λ%d): holder %d still has %d queued packets", d, w, ch.holder, len(old.queue))
	}
	oldHolder := ch.holder
	ch.holder = newHolder
	if f.sink != nil {
		// Board carries the new holder.
		f.sink.Emit(telemetry.Event{Cycle: now, Kind: telemetry.ChannelReassign,
			Board: newHolder, Wavelength: w, Dest: d, From: oldHolder, To: newHolder})
	}
	nl := f.laser(newHolder, w, d)
	level := f.cfg.Ladder.Top()
	prev := nl.level
	if prev != level {
		nl.SetLevel(level, now, f.cfg.RelockCycles)
	}
	if nl.level == prev {
		// The level did not move — either the request matched the current
		// level or a stuck actuator ignored it — but the receiver must
		// still lock onto the new source: pay the relock window.
		nl.transitions++
		nl.disabledUntil = now + f.cfg.RelockCycles
	}
	// The holder change flipped which laser is lit: re-derive both lasers'
	// idle supply contributions.
	f.refreshIdle(old)
	f.refreshIdle(nl)
	return nil
}

// FailLaser marks laser (s, w, d) failed: it stops transmitting, stops
// drawing supply power, and (failure is fail-stop at packet boundaries)
// any in-flight serialization still completes. A permanent failure also
// discards the laser's queued packets through the drop hook and makes
// the transmitter drop packets routed to it; a transient failure holds
// its queue until RestoreLaser.
func (f *Fabric) FailLaser(s, w, d int, permanent bool, now uint64) {
	if !f.CanHold(s, w, d) {
		panic(fmt.Sprintf("optical: FailLaser(%d,λ%d→%d): no such laser", s, w, d))
	}
	l := f.laser(s, w, d)
	l.failed = true
	if permanent {
		l.permFailed = true
		for i, p := range l.queue {
			l.dropWin++
			if f.dropHook != nil {
				f.dropHook(p, now)
			}
			l.queue[i] = nil
		}
		l.queue = l.queue[:0]
	}
	f.refreshIdle(l)
}

// RestoreLaser clears a laser's failed state. The recovered link pays
// the relock penalty before transmitting again (the receiver must
// re-acquire the returning source).
func (f *Fabric) RestoreLaser(s, w, d int, now uint64) {
	if !f.CanHold(s, w, d) {
		panic(fmt.Sprintf("optical: RestoreLaser(%d,λ%d→%d): no such laser", s, w, d))
	}
	l := f.laser(s, w, d)
	l.failed = false
	l.permFailed = false
	if l.Operating() {
		l.transitions++
		l.disabledUntil = now + f.cfg.RelockCycles
	}
	f.refreshIdle(l)
}

// StickLaser pins laser (s, w, d) at the given operating level: until
// UnstickLaser, every SetLevel — DPM decisions, reassignment relevels —
// is silently ignored (a stuck DPM actuator).
func (f *Fabric) StickLaser(s, w, d, level int, now uint64) {
	if !f.CanHold(s, w, d) {
		panic(fmt.Sprintf("optical: StickLaser(%d,λ%d→%d): no such laser", s, w, d))
	}
	l := f.laser(s, w, d)
	if !f.cfg.Ladder.Operating(level) {
		panic(fmt.Sprintf("optical: StickLaser(%d,λ%d→%d): level %d is not an operating level", s, w, d, level))
	}
	l.stuck = false
	l.SetLevel(level, now, f.cfg.RelockCycles)
	l.stuck = true
}

// UnstickLaser releases a stuck laser's DPM actuator.
func (f *Fabric) UnstickLaser(s, w, d int) {
	if !f.CanHold(s, w, d) {
		panic(fmt.Sprintf("optical: UnstickLaser(%d,λ%d→%d): no such laser", s, w, d))
	}
	if l := f.Laser(s, w, d); l != nil {
		l.stuck = false
	}
}

// LaserHealthy reports whether board s has a live (populated, not
// failed) laser for channel (d, w). It refines CanHold for fault-aware
// callers: only healthy candidates are worth re-allocating a channel to.
func (f *Fabric) LaserHealthy(s, w, d int) bool {
	return f.CanHold(s, w, d) && !f.Laser(s, w, d).Failed()
}

// AppendHoldersToward appends the wavelengths board s currently holds
// toward board d (the route candidates for flow s→d) to buf, in
// ascending order, and returns it. Channels whose laser has failed
// are skipped: routing falls back to a surviving wavelength. Hot routing
// paths pass a reused scratch buffer to avoid a per-packet allocation.
func (f *Fabric) AppendHoldersToward(buf []int, s, d int) []int {
	for w := 1; w < f.top.Boards(); w++ {
		if f.channels[d][w].holder == s && !f.Laser(s, w, d).failed {
			buf = append(buf, w)
		}
	}
	return buf
}

// delivery is one in-flight optical transmission: packet p arrives on
// channel (d, w) at cycle at. seq preserves push (FIFO) order among
// equal arrival times.
type delivery struct {
	at  uint64
	seq uint64
	d   int
	w   int
	p   *flit.Packet
}

// pushDelivery schedules a completed serialization for delivery.
func (f *Fabric) pushDelivery(at uint64, d, w int, p *flit.Packet) {
	h := f.delHeap
	h = append(h, delivery{at: at, seq: f.delSeq, d: d, w: w, p: p})
	f.delSeq++
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].at < h[i].at || (h[parent].at == h[i].at && h[parent].seq < h[i].seq) {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	f.delHeap = h
}

// DeliverDue hands every transmission with arrival ≤ now to its
// channel's receive path, in (arrival, transmission start) order. The
// system driver calls it once per cycle before ticking receive sources;
// Tick also calls it so directly-driven fabrics (tests) deliver without
// a driver. It is idempotent within a cycle.
func (f *Fabric) DeliverDue(now uint64) {
	for len(f.delHeap) > 0 && f.delHeap[0].at <= now {
		h := f.delHeap
		dv := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h[n] = delivery{}
		h = h[:n]
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && (h[r].at < h[child].at || (h[r].at == h[child].at && h[r].seq < h[child].seq)) {
				child = r
			}
			if h[i].at < h[child].at || (h[i].at == h[child].at && h[i].seq < h[child].seq) {
				break
			}
			h[i], h[child] = h[child], h[i]
			i = child
		}
		f.delHeap = h
		if fn := f.deliver[dv.d][dv.w]; fn != nil {
			fn(dv.p, dv.at)
		}
	}
}

// FastForwardIdle accounts n cycles on a quiescent fabric without
// ticking: the only per-cycle effect a Tick has when nothing is queued,
// busy or in flight is the idle-power sample, which is replayed here
// with the same per-cycle float operations. No engine path calls it; it
// remains only for the benchmark's optical.ff_idle_ns_per_cycle metric
// until that metric is replaced (ROADMAP item 1c). Callers guarantee
// Quiescent(now) for the whole stretch.
func (f *Fabric) FastForwardIdle(n uint64) {
	if !f.meterEnabled {
		return
	}
	for i := uint64(0); i < n; i++ {
		f.meter.AddCycleMW(f.idleLitMW, false)
		f.meter.Observe(1)
	}
}

// Tick is one fabric cycle on its own: DeliverDue, then TickBoards.
// Call exactly once per cycle. A core System splits the two, delivering
// in the head of its cycle and ticking after its IBI routers.
func (f *Fabric) Tick(now uint64) {
	f.DeliverDue(now)
	f.TickBoards(now)
}

// TickBoards advances every board's transmitters, then every board's
// active lasers, one cycle, and samples statistics and power. Only
// transmitters holding flits and lasers on the active list are visited;
// lasers that go idle drop off the list and their statistics and supply
// power are carried forward in bulk (syncStats, idleLitMW).
func (f *Fabric) TickBoards(now uint64) {
	for s := range f.boards {
		f.tickBoardTx(s, now)
	}
	for s := range f.boards {
		f.tickBoardLasers(s, now)
	}
	if f.meterEnabled {
		f.meter.AddCycleMW(f.idleLitMW, false)
		f.meter.Observe(1)
	}
	// Lasers deactivated this cycle were metered by tickLaser; they join
	// the idle aggregate only from the next cycle on.
	for s := range f.boards {
		f.flushDeact(s)
	}
	f.nextTick = now + 1
}

// tickBoardTx raises board s's transmitters whose tail matures now, then
// advances those holding a matured packet one cycle.
func (f *Fabric) tickBoardTx(s int, now uint64) {
	f.boards[s].txWheel.Turn(now, f.boards[s].txPending, nil)
	txs := f.txs[s*(f.top.Boards()-1):]
	for wi, word := range f.boards[s].txPending {
		for ; word != 0; word &= word - 1 {
			txs[wi<<6|bits.TrailingZeros64(word)].tick(now)
		}
	}
}

// tickBoardLasers advances board s's active lasers one cycle, compacting
// lasers that go idle onto the board's deferred-deactivation list.
func (f *Fabric) tickBoardLasers(s int, now uint64) {
	bs := &f.boards[s]
	lst := bs.active
	kept := lst[:0]
	deact := bs.deact[:0]
	for _, l := range lst {
		f.tickLaser(l, now)
		if len(l.queue) > 0 || l.busyUntil > now+1 {
			kept = append(kept, l)
		} else {
			l.active = false
			deact = append(deact, l)
		}
	}
	for i := len(kept); i < len(lst); i++ {
		lst[i] = nil
	}
	bs.active = kept
	bs.deact = deact
}

// flushDeact re-derives the idle supply contribution of board s's lasers
// that left the active list this cycle (they join the idle aggregate
// only from the next cycle on).
func (f *Fabric) flushDeact(s int) {
	bs := &f.boards[s]
	d := bs.deact
	for i, l := range d {
		f.refreshIdle(l)
		d[i] = nil
	}
	bs.deact = d[:0]
}

func (f *Fabric) tickLaser(l *Laser, now uint64) {
	ch := l.ch
	lit := ch.holder == l.s && !l.failed
	if lit && l.level == 0 && len(l.queue) > 0 && f.cfg.Ladder.Operating(f.autoWake) {
		l.SetLevel(f.autoWake, now, f.cfg.RelockCycles)
		f.wakes++
	}
	// Try to start a transmission.
	if lit && len(l.queue) > 0 && l.Operating() &&
		!l.Disabled(now) && !l.Busy(now) && !ch.Busy(now) {
		p := l.queue[0]
		copy(l.queue, l.queue[1:])
		l.queue[len(l.queue)-1] = nil
		l.queue = l.queue[:len(l.queue)-1]
		if f.sink != nil {
			f.sink.Emit(telemetry.Event{Cycle: now, Kind: telemetry.PacketLaserTransmit, Packet: uint64(p.ID), Board: l.s, Wavelength: l.w, Dest: l.d})
		}
		ser := f.cfg.Ladder.SerializationCycles(p.Bits(), l.level, f.cfg.CycleNS)
		l.busyUntil = now + ser
		ch.busyUntil = now + ser
		f.pushDelivery(now+ser+f.cfg.PropCycles, l.d, l.w, p)
		l.sentPackets++
	}
	busy := l.Busy(now)
	if busy {
		l.busyCycles++
	}
	l.LinkWin.Tick(busy)
	l.BufWin.AddN(uint64(len(l.queue)), uint64(f.cfg.QueueCap))
	l.statsAt = now + 1
	if f.meterEnabled && lit && l.Operating() {
		f.meter.AddCycleMW(f.cfg.Ladder.MW(l.level), busy)
	}
}

// BoardStats is one board's transmit-side aggregate, sampled by the
// telemetry collector once per reconfiguration window.
type BoardStats struct {
	// Held counts incoming channels this board currently drives.
	Held int
	// Lit counts held channels whose laser is at an operating level.
	Lit int
	// SupplyMW sums the supply power of the lit lasers (instantaneous).
	SupplyMW float64
	// LevelSum sums the lit lasers' ladder levels (for a mean level).
	LevelSum int
	// Queued counts packets waiting across all the board's laser queues.
	Queued int
	// TxBusyCycles sums the board's lasers' cumulative busy cycles;
	// per-window deltas give the board's transmit occupancy.
	TxBusyCycles uint64
	// Failed counts the board's lasers currently failed (fault injection).
	Failed int
}

// BoardStats fills st with board s's transmit-side aggregate. When
// levelCounts is non-nil, each held channel's current level is
// histogrammed into it (index = ladder level, 0 = Off); levels beyond
// its length are dropped. The walk visits the board's materialised
// lasers (an implicit one is dark, idle and healthy, and adds nothing),
// once per reconfiguration window, not per cycle.
func (f *Fabric) BoardStats(s int, st *BoardStats, levelCounts []int) {
	*st = BoardStats{}
	b := f.top.Boards()
	for _, l := range f.heads[s*b+1 : (s+1)*b] {
		for ; l != nil; l = l.next {
			st.Queued += len(l.queue)
			st.TxBusyCycles += l.busyCycles
			if l.failed {
				st.Failed++
			}
			if l.ch.holder != s {
				continue
			}
			st.Held++
			if !l.failed && l.ladder.Operating(l.level) {
				st.Lit++
				st.SupplyMW += f.cfg.Ladder.MW(l.level)
				st.LevelSum += l.level
			}
			if levelCounts != nil && l.level < len(levelCounts) {
				levelCounts[l.level]++
			}
		}
	}
}

// CheckInvariants verifies structural invariants; tests call it after
// reconfiguration storms. It returns an error describing the first
// violation found.
func (f *Fabric) CheckInvariants() error {
	b := f.top.Boards()
	for d := 0; d < b; d++ {
		for w := 1; w < b; w++ {
			ch := f.channels[d][w]
			if ch.holder == d {
				return fmt.Errorf("channel (%d,λ%d) held by its own destination", d, w)
			}
			if ch.holder < 0 || ch.holder >= b {
				return fmt.Errorf("channel (%d,λ%d) holder %d out of range", d, w, ch.holder)
			}
		}
	}
	// Every holder's laser is materialised, each transmitter's lasers are
	// ordered by destination, and per-laser queues respect capacity.
	for d := 0; d < b; d++ {
		for w := 1; w < b; w++ {
			if h := f.channels[d][w].holder; f.Laser(h, w, d) == nil {
				return fmt.Errorf("channel (%d,λ%d): holder %d's laser is not materialised", d, w, h)
			}
		}
	}
	for _, l := range f.heads {
		for ; l != nil; l = l.next {
			if l.next != nil && l.next.d <= l.d {
				return fmt.Errorf("transmitter (%d,λ%d): laser →%d follows →%d", l.s, l.w, l.next.d, l.d)
			}
			if len(l.queue) > f.cfg.QueueCap {
				return fmt.Errorf("laser (%d,λ%d→%d) queue %d exceeds capacity %d", l.s, l.w, l.d, len(l.queue), f.cfg.QueueCap)
			}
		}
	}
	return nil
}

// CheckIndex verifies, by exhaustive scan, that every transmitter's
// txPending bit agrees with holdsPacket as of the last TickBoards, and
// that every unmatured tail is on the board's wheel; tests call it
// between Ticks.
func (f *Fabric) CheckIndex() error {
	wpb := f.top.Boards() - 1
	for s := range f.boards {
		bs := &f.boards[s]
		for i, tx := range f.txs[s*wpb : (s+1)*wpb] {
			if hp := tx.holdsPacket(f.nextTick); bs.txPending.Has(i) != hp {
				return fmt.Errorf("tx(%d,λ%d) holds %d flits (matured packet %v), bit %v", s, tx.w, tx.PendingFlits(), hp, bs.txPending.Has(i))
			}
			for v := range tx.vcs {
				if e := tx.vcs[v].entries; len(e) > 0 && e[len(e)-1].f.IsTail() && e[len(e)-1].readyAt >= f.nextTick && !bs.txWheel.Armed(i, e[len(e)-1].readyAt) {
					return fmt.Errorf("tx(%d,λ%d) VC %d: tail maturing at %d is not on the wheel", s, tx.w, v, e[len(e)-1].readyAt)
				}
			}
		}
	}
	return nil
}

// Quiescent reports whether no transmitter buffers flits, no laser holds
// queued packets or in-flight serializations at the given cycle, and no
// delivery is in flight.
//
// The laser check is O(boards), not O(lasers): a laser with queued packets or
// an unfinished serialization is exactly a laser still on its board's
// active list (tickBoardLasers' retention condition), a serialization
// busy past now always has its delivery still pending in delHeap
// (scheduled at start+ser+prop ≥ busyUntil). Transmitters are checked by
// a scan of PendingFlits, because the txPending set misses one that holds
// part of a packet or an unmatured tail. No engine path calls it; like
// FastForwardIdle it remains only for the benchmark's
// optical.ff_idle_ns_per_cycle metric until ROADMAP item 1c.
func (f *Fabric) Quiescent(now uint64) bool {
	if len(f.delHeap) > 0 {
		return false
	}
	for s := range f.boards {
		if len(f.boards[s].active) > 0 {
			return false
		}
	}
	for _, tx := range f.txs {
		if tx.PendingFlits() > 0 {
			return false
		}
	}
	return true
}
