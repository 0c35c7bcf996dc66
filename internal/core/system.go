package core

import (
	"fmt"
	"math/bits"

	"repro/internal/ctrl"
	"repro/internal/fault"
	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/optical"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// System is a fully assembled E-RAPID network ready to simulate.
type System struct {
	cfg Config
	top *topology.Topology
	eng *sim.Engine

	fab  *optical.Fabric
	ctl  *ctrl.System
	meas *stats.Measurement
	// faults is the fault injector, nil on healthy runs (the healthy hot
	// path pays exactly one nil check per cycle).
	faults *fault.Injector

	boards    []*board
	injectors []traffic.Source
	// Each node's injection process is drawn ahead to its next packet
	// (drawInjection): the draw covers cycles injFrom[n]..injAt[n] and
	// ends in a packet to injDst[n], or in none when injDst[n] < 0.
	// injWheel raises node n in injSet at injAt[n].
	injFrom, injAt []uint64
	injDst         []int
	injWheel       sim.Wheel
	injSet         sim.ActiveSet
	nics           []*link.PacketSource // indexed by global node id
	// nicSet indexes nics by HasWork, as a board's rxSet its rxSources.
	nicSet  sim.ActiveSet
	nextPkt flit.PacketID

	// freePkts recycles delivered packets (and their flit slabs) so the
	// steady-state injection path allocates nothing.
	freePkts []*flit.Packet
	// pktBlock serves pool misses in 256-packet chunks: when offered load
	// exceeds saturation the in-flight population grows every cycle, and
	// chunking amortizes that growth to two allocations per chunk.
	pktBlock *flit.Block

	injected  uint64
	delivered uint64
	// droppedByFault counts packets destroyed by fault injection (queued
	// or routed into a permanently failed laser).
	droppedByFault uint64
	// deliveredPerNode counts measurement-phase deliveries per destination
	// node, for the fairness index.
	deliveredPerNode []uint64
	cycle            uint64
	nextCycle        uint64

	// tel is the unified telemetry pipeline: every instrumented point in
	// the system emits through this single sink. nil means disabled, and
	// the nil check is the entire disabled-path cost (no allocations).
	tel telemetry.Sink
	// sinks holds the attached sinks individually so AttachSink can
	// rebuild the tee.
	sinks []telemetry.Sink
	// telemetry is the per-window metrics collector (EnableTelemetry).
	telemetry *Telemetry
	// lastPhase tracks measurement phase transitions for PhaseChange
	// events (-1 = none emitted yet).
	lastPhase int
}

// board groups the per-board electrical components.
type board struct {
	idx    int
	ibi    *router.Router
	ejects []*link.PacketSink
	// rxSources re-inject optically received packets into the IBI, one per
	// wavelength.
	rxSources []*link.PacketSource // index w-1
	// rxSet indexes rxSources by HasWork: Enqueue (DeliverDue) and
	// PutCredit raise a bit when the source can act, and a source that
	// runs out of work or credit clears its own.
	rxSet sim.ActiveSet
	rrW   int // tie-break rotation for route choices
	// routeWS is the board's reusable route-choice wavelength scratch
	// buffer.
	routeWS []int
}

// NewSystem validates the configuration and assembles the network; the
// returned system is already running (its LS controllers are engine
// callbacks, scheduled at construction) and ready to step.
func NewSystem(cfg Config) (*System, error) {
	s := new(System)
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rebuilds s for cfg exactly as NewSystem(cfg) builds a system,
// keeping only the pointer: any valid single-tier config is accepted,
// whatever its shape, and a run in progress is abandoned. On error s is
// left as it was.
func (s *System) Reset(cfg Config) error {
	if cfg.MultiTier() {
		return fmt.Errorf("core: a System models one SRS tier; run multi-tier configs through Run/RunContext or NewHier")
	}
	old := *s
	if err := s.build(cfg, nil); err != nil {
		*s = old
		return err
	}
	return nil
}

// build validates cfg and constructs every component of the system into
// s: engine, optical fabric, NICs, IBI routers, sinks, packet pool, LS
// controllers, measurement, fault injector and traffic injectors. It is
// the only place any of these is created. newPol optionally overrides
// the per-board policy (the oracle pre-pass's profilers); otherwise a
// config selecting oracle-static first runs a healthy profiling
// pre-pass on the same seed and traffic, which is deterministic.
func (s *System) build(cfg Config, newPol func(board int) policy.Policy) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg = cfg.normalized()
	top := topology.MustNewSRS(cfg.Boards, cfg.NodesPerBoard)
	eng := sim.NewEngine()
	ladder, err := cfg.ladder()
	if err != nil {
		return err
	}
	fab, err := optical.NewFabric(top, eng, optical.Config{
		CycleNS:        cfg.CycleNS,
		PropCycles:     cfg.PropCyclesOpt,
		RelockCycles:   cfg.RelockCycles,
		QueueCap:       cfg.LaserQueueCap,
		VCs:            cfg.VCs,
		FlitsPerPacket: cfg.FlitsPerPacket(),
		Ladder:         ladder,
		PortRadius:     cfg.PortRadius,
	})
	if err != nil {
		return err
	}
	*s = System{cfg: cfg, top: top, eng: eng, fab: fab, lastPhase: -1}
	s.assemble()
	s.pktBlock = flit.NewBlock((&flit.Packet{Size: cfg.PacketBytes, FlitBytes: cfg.FlitBytes}).Flits())

	cc := cfg.ctrlConfig()
	if newPol != nil {
		cc.NewPolicy = newPol
	} else if cc.Policy.CanonicalName() == "oracle-static" {
		prof, err := oracleProfile(cfg, ladder)
		if err != nil {
			return fmt.Errorf("core: oracle profiling pre-pass: %w", err)
		}
		spec := cc.Policy
		cc.NewPolicy = func(b int) policy.Policy {
			return policy.NewOracleStatic(policyParams(cfg, cc, ladder, b, spec), prof)
		}
	}
	if s.ctl, err = ctrl.NewSystem(top, fab, eng, cc); err != nil {
		return err
	}
	s.meas = stats.NewMeasurement(cfg.WarmupCycles, cfg.MeasureCycles)
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		if s.faults, err = fault.New(fab, cfg.Window, cfg.Seed, cfg.Faults); err != nil {
			return err
		}
		fab.SetDropHook(s.onFaultDrop)
		if cfg.Faults.HasCtrlFaults() {
			s.ctl.SetRingFault(s.faults)
		}
	}
	return s.buildInjectors()
}

// assemble wires NICs, IBI routers, transmitters and receivers.
func (s *System) assemble() {
	cfg := s.cfg
	top := s.top
	b := top.Boards()
	d := top.NodesPerBoard()
	w := top.Wavelengths() // B-1

	nodes := top.TotalNodes()
	s.nics = make([]*link.PacketSource, nodes)
	s.deliveredPerNode = make([]uint64, nodes)
	s.injFrom, s.injAt, s.injDst = make([]uint64, nodes), make([]uint64, nodes), make([]int, nodes)
	s.injSet, s.nicSet = sim.NewActiveSet(nodes), sim.NewActiveSet(nodes)
	for bi := 0; bi < b; bi++ {
		bd := &board{idx: bi, rxSet: sim.NewActiveSet(w)}
		// Port map: inputs 0..d-1 node NICs, d..d+w-1 optical receivers;
		// outputs 0..d-1 node ejectors, d..d+w-1 transmitters.
		bd.ibi = router.MustNew(router.Config{
			Name:     fmt.Sprintf("ibi%d", bi),
			Inputs:   d + w,
			Outputs:  d + w,
			VCs:      cfg.VCs,
			BufDepth: cfg.BufDepth,
			Route:    s.routeFunc(bd),
		})

		// Node NICs and ejectors.
		for n := 0; n < d; n++ {
			global := top.NodeID(bi, n)
			nic := link.NewPacketSource(fmt.Sprintf("nic%d", global),
				bd.ibi.InputSink(n), cfg.VCs, cfg.BufDepth, cfg.FlitCyclesElec)
			nic.OnDequeue = func(p *flit.Packet, now uint64) {
				p.NetworkAt = now
				if s.tel != nil {
					s.tel.Emit(telemetry.Event{Cycle: now, Kind: telemetry.PacketNetEnter, Packet: uint64(p.ID), Board: p.SrcBoard, Wavelength: -1, Dest: -1})
				}
			}
			nic.TrackIn(s.nicSet, global)
			bd.ibi.SetInputCreditSink(n, nic)
			s.nics[global] = nic

			sink := link.NewPacketSink(fmt.Sprintf("eject%d", global),
				bd.ibi.CreditSink(n), s.onDeliver)
			bd.ibi.ConnectOutput(n, router.OutputLink{
				Sink:       sink,
				FlitCycles: cfg.FlitCyclesElec,
				DownVCs:    cfg.VCs,
				DownDepth:  cfg.EjectDepth,
			})
			bd.ejects = append(bd.ejects, sink)
		}

		// Transmitters on output ports d..d+w-1.
		for wl := 1; wl <= w; wl++ {
			tx := s.fab.Transmitter(bi, wl)
			port := d + wl - 1
			bd.ibi.ConnectOutput(port, router.OutputLink{
				Sink:       tx,
				FlitCycles: cfg.FlitCyclesElec,
				DownVCs:    cfg.VCs,
				DownDepth:  cfg.FlitsPerPacket(),
			})
			tx.SetCreditSink(bd.ibi.CreditSink(port))
		}

		// Receivers on input ports d..d+w-1: optical deliveries feed a
		// packet source that re-injects the flit stream into the IBI.
		for wl := 1; wl <= w; wl++ {
			port := d + wl - 1
			rx := link.NewPacketSource(fmt.Sprintf("rx%d.λ%d", bi, wl),
				bd.ibi.InputSink(port), cfg.VCs, cfg.BufDepth, cfg.FlitCyclesElec)
			rx.TrackIn(bd.rxSet, wl-1)
			bd.ibi.SetInputCreditSink(port, rx)
			bd.rxSources = append(bd.rxSources, rx)
			bi, wl := bi, wl
			s.fab.SetDeliver(bi, wl, func(p *flit.Packet, now uint64) {
				if s.tel != nil {
					s.tel.Emit(telemetry.Event{Cycle: now, Kind: telemetry.PacketOpticalArrive, Packet: uint64(p.ID), Board: bi, Wavelength: wl, Dest: bi})
				}
				rx.Enqueue(p)
			})
		}

		s.boards = append(s.boards, bd)
	}
}

// buildInjectors creates the per-node traffic injectors, one
// independent derived RNG stream per node in node order, and draws each
// ahead from cycle 0.
func (s *System) buildInjectors() error {
	cfg := s.cfg
	master := rng.New(cfg.Seed)
	nodes := s.top.TotalNodes()
	pattern, err := traffic.NewGrouped(cfg.Pattern, nodes, s.top.NodesPerBoard())
	if err != nil {
		return err
	}
	rate := cfg.Rate()
	s.injectors = make([]traffic.Source, 0, nodes)
	for n := range nodes {
		if cfg.BurstLength > 0 {
			s.injectors = append(s.injectors, traffic.NewBurstyInjector(n, rate, cfg.BurstDuty, cfg.BurstLength, pattern, master))
		} else {
			s.injectors = append(s.injectors, traffic.NewInjector(n, rate, pattern, master))
		}
	}
	for n := range nodes {
		s.drawInjection(n, 0)
	}
	return nil
}

// injHorizon bounds one draw-ahead, so a vanishing rate cannot spin.
const injHorizon = 4096

// drawInjection draws node n's injection process ahead from cycle from
// to its next packet, or through the horizon, and arms the wheel for the
// draw's last cycle. A node's stream is its own, so drawing it early
// consumes it in the same order as a draw per cycle.
func (s *System) drawInjection(n int, from uint64) {
	k, dst, ok := s.injectors[n].Next(injHorizon)
	if !ok {
		dst = -1
	}
	s.injFrom[n], s.injAt[n], s.injDst[n] = from, from+k-1, dst
	s.injWheel.Arm(n, from+k-1)
}

// routeFunc builds the IBI routing function for one board: intra-board
// packets go to their node's ejection port; inter-board packets go to a
// transmitter whose laser currently reaches the destination board,
// choosing the least-loaded laser (ties rotated), or the static
// wavelength when the flow holds no channel (packets park there until
// the owner reclaims it).
func (s *System) routeFunc(bd *board) router.RouteFunc {
	top := s.top
	d := top.NodesPerBoard()
	return func(p *flit.Packet) int {
		if p.DstBoard == bd.idx {
			return top.Local(p.Dst)
		}
		ws := s.fab.AppendHoldersToward(bd.routeWS[:0], bd.idx, p.DstBoard)
		bd.routeWS = ws
		if len(ws) == 0 {
			return d + top.Wavelength(bd.idx, p.DstBoard) - 1
		}
		best := ws[0]
		bestLen := s.fab.Laser(bd.idx, best, p.DstBoard).QueueLen()
		for i := 1; i < len(ws); i++ {
			w := ws[(i+bd.rrW)%len(ws)]
			if l := s.fab.Laser(bd.idx, w, p.DstBoard).QueueLen(); l < bestLen {
				best, bestLen = w, l
			}
		}
		bd.rrW++
		return d + best - 1
	}
}

// onDeliver is the ejection callback: it stamps a delivered packet and
// feeds the measurement.
func (s *System) onDeliver(p *flit.Packet, now uint64) {
	p.ReceivedAt = now
	s.delivered++
	if s.meas.Phase() == stats.Measure {
		s.deliveredPerNode[p.Dst]++
	}
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{Cycle: now, Kind: telemetry.PacketDeliver, Packet: uint64(p.ID), Board: p.DstBoard, Wavelength: -1, Dest: -1})
	}
	if s.telemetry != nil {
		s.telemetry.noteDelivery(p)
	}
	s.meas.OnDeliver(p.Labeled, p.Latency(), p.NetworkLatency())
	// A delivered packet is fully consumed (all flits reassembled, stats
	// recorded); recycle it. Telemetry sinks copy the packet ID by value,
	// so they do not inhibit recycling.
	s.freePkts = append(s.freePkts, p)
}

// onFaultDrop is the fabric's drop hook: a fault destroyed a packet
// that will never be delivered. It keeps the labeled-packet accounting
// balanced so the drain phase still terminates, and recycles the packet
// as delivery does.
func (s *System) onFaultDrop(p *flit.Packet, now uint64) {
	s.droppedByFault++
	s.meas.OnDrop(p.Labeled)
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{Cycle: now, Kind: telemetry.PacketDropFault, Packet: uint64(p.ID), Board: p.SrcBoard, Wavelength: -1, Dest: p.DstBoard})
	}
	s.freePkts = append(s.freePkts, p)
}

// injectAll admits the packets due this cycle, in global node order:
// packet IDs, labeling, pool recycling and the inject event all happen
// here, in the cycle's head. Only the nodes whose draw ends now are
// visited (a node draws ahead to its next packet, drawInjection); each
// then draws again from the next cycle.
func (s *System) injectAll(now uint64) {
	s.injWheel.Turn(now, s.injSet, s.injAt)
	for wi, word := range s.injSet {
		for ; word != 0; word &= word - 1 {
			n := wi<<6 | bits.TrailingZeros64(word)
			if dst := s.injDst[n]; dst >= 0 {
				s.injectOne(n, dst, now)
			}
			s.drawInjection(n, now+1)
		}
		s.injSet[wi] = 0
	}
}

// injectOne admits one packet from node n to dst.
func (s *System) injectOne(n, dst int, now uint64) {
	s.nextPkt++
	var p *flit.Packet
	if k := len(s.freePkts); k > 0 {
		p = s.freePkts[k-1]
		s.freePkts[k-1] = nil
		s.freePkts = s.freePkts[:k-1]
		p.Reset()
	} else {
		p = s.pktBlock.Get()
	}
	p.ID = s.nextPkt
	p.Src = n
	p.Dst = dst
	p.SrcBoard = s.top.Board(n)
	p.DstBoard = s.top.Board(dst)
	p.Size = s.cfg.PacketBytes
	p.FlitBytes = s.cfg.FlitBytes
	p.InjectedAt = now
	p.Labeled = s.meas.OnInject(now)
	s.injected++
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{Cycle: now, Kind: telemetry.PacketInject, Packet: uint64(p.ID), Board: p.SrcBoard, Wavelength: -1, Dest: -1})
	}
	s.nics[n].Enqueue(p)
}

// stepHead opens the head of a cycle: control-plane engine
// events, due optical deliveries, fault strikes, measurement phase
// advance and the metering switch.
func (s *System) stepHead(now uint64) {
	s.eng.RunUntil(now)
	// Completed optical transmissions enqueue into the rx sources before
	// any component ticks, as when deliveries were engine events.
	s.fab.DeliverDue(now)
	if s.faults != nil {
		// Faults strike before the measurement advances so a kill's drops
		// are counted in the same cycle's phase accounting.
		s.faults.Tick(now)
	}
	s.meas.Advance(now)
	if s.tel != nil {
		if ph := int(s.meas.Phase()); ph != s.lastPhase {
			s.lastPhase = ph
			s.tel.Emit(telemetry.Event{Cycle: now, Kind: telemetry.PhaseChange,
				Board: -1, Wavelength: -1, Dest: -1, Label: s.meas.Phase().String()})
		}
	}
	// Power metering tracks the measurement interval.
	switch s.meas.Phase() {
	case stats.Measure:
		s.fab.EnableMetering(true)
	case stats.Drain, stats.Done:
		s.fab.EnableMetering(false)
	}
}

// tickSources ticks the members of set, in ascending order. A Tick never
// enqueues to or credits a source, so no bit of set rises during the
// walk; a source that runs out of work clears its own bit.
func tickSources(set sim.ActiveSet, srcs []*link.PacketSource, now uint64) {
	for wi, word := range set {
		for ; word != 0; word &= word - 1 {
			srcs[wi<<6|bits.TrailingZeros64(word)].Tick(now)
		}
	}
}

// tickRxIBI advances the board's receive sources and then its router.
func (bd *board) tickRxIBI(now uint64) {
	tickSources(bd.rxSet, bd.rxSources, now)
	if bd.ibi.HasWork() {
		bd.ibi.Tick(now)
	}
}

// step simulates cycle now on the calling goroutine: the head
// (stepHead, then packet admission in global node order), the NICs in
// the same order, every board's receive sources and IBI router, the
// fabric's transmitters and lasers (TickBoards), and last the telemetry
// observer. Only components with work are visited, in the order an
// exhaustive scan would visit them (the Tick of a component with no work
// is a no-op, so skipping it changes nothing).
func (s *System) step(now uint64) {
	s.stepHead(now)
	s.injectAll(now)
	tickSources(s.nicSet, s.nics, now)
	for _, bd := range s.boards {
		bd.tickRxIBI(now)
	}
	s.fab.TickBoards(now)
	if s.telemetry != nil {
		s.telemetry.observe(now)
	}
	s.cycle = now
}

// AttachSink adds a telemetry sink to the unified event pipeline:
// packet lifecycle (inject, net-enter, laser enqueue/transmit, optical
// arrive, deliver), DBR reassignments, DPM level transitions, LS stage
// entries, and measurement phase changes all flow through it. Multiple
// sinks may be attached; they receive every event in order. Must be
// called before stepping.
func (s *System) AttachSink(sink telemetry.Sink) {
	if sink == nil {
		return
	}
	s.sinks = append(s.sinks, sink)
	// Point every instrumented component at the combined sink.
	s.tel = telemetry.Tee(s.sinks...)
	if s.faults != nil {
		s.faults.SetSink(s.tel)
	}
	s.fab.SetSink(s.tel)
	s.ctl.SetSink(s.tel)
}

// SetInjectionRate changes every node's mean injection rate mid-run
// (phased-load experiments such as the Fig. 3 design-space demo). rate
// is in packets/node/cycle; it applies from the next cycle stepped: each
// node's draw-ahead is rewound to that cycle and drawn again.
func (s *System) SetInjectionRate(rate float64) {
	for n, src := range s.injectors {
		src.Rewind(s.nextCycle - s.injFrom[n])
		switch inj := src.(type) {
		case *traffic.Injector:
			inj.Rate = rate
		case *traffic.BurstyInjector:
			inj.SetMean(rate)
		}
		s.drawInjection(n, s.nextCycle)
	}
}

// Step advances the whole system by exactly one cycle and returns the
// cycle just simulated. It is the building block for custom drivers
// (e.g. the design-space time-series example).
func (s *System) Step() uint64 { return s.StepN(1) }

// StepN advances the system up to n cycles (stopping early if the
// measurement reaches Done) and returns the last cycle simulated. It
// always simulates at least one cycle when n > 0, so a driver may step
// past Done one cycle per call. Run steps in window-sized batches.
func (s *System) StepN(n uint64) uint64 {
	if n == 0 {
		return s.cycle
	}
	end := s.nextCycle + n
	for {
		now := s.nextCycle
		s.step(now)
		s.nextCycle = now + 1
		if s.nextCycle >= end || s.meas.Phase() == stats.Done {
			return now
		}
	}
}

// Close is a no-op, kept so drivers written against the earlier
// multi-threaded engine still compile: a System owns no goroutine or
// other resource that needs releasing.
func (s *System) Close() {}

// Cycle returns the last simulated cycle.
func (s *System) Cycle() uint64 { return s.cycle }

// InjectedCount returns the number of packets injected so far.
func (s *System) InjectedCount() uint64 { return s.injected }

// DeliveredCount returns the number of packets delivered so far.
func (s *System) DeliveredCount() uint64 { return s.delivered }

// DroppedByFault returns the number of packets destroyed by fault
// injection so far.
func (s *System) DroppedByFault() uint64 { return s.droppedByFault }

// Quiescent reports whether every injected packet has been accounted
// for: delivered or destroyed by a fault, with nothing in flight. It is
// the conservation invariant fault tests drain to.
func (s *System) Quiescent() bool {
	return s.injected == s.delivered+s.droppedByFault
}

// Engine exposes the simulation engine (examples and tests).
func (s *System) Engine() *sim.Engine { return s.eng }

// Fabric exposes the optical fabric.
func (s *System) Fabric() *optical.Fabric { return s.fab }

// Controllers exposes the LS controller system, running since
// construction; an explicit Start is a no-op.
func (s *System) Controllers() *ctrl.System { return s.ctl }

// Topology exposes the topology.
func (s *System) Topology() *topology.Topology { return s.top }

// Measurement exposes the measurement state.
func (s *System) Measurement() *stats.Measurement { return s.meas }
