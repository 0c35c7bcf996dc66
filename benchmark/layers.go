package main

import (
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/optical"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Standalone per-layer harnesses. Each builds one layer through its
// exported constructors, feeds it the operation mix the traced run of the
// workload counted (packets, flits and events per cycle), and times the
// exported calls from outside. Nothing here reaches into a package.

// opMix is how often the traced run of a workload called into each layer.
type opMix struct {
	cfg         core.Config
	cycles      uint64
	nodes       int
	boards      int
	injected    uint64
	delivered   uint64
	opticalSent uint64 // packets that crossed the fabric
	events      uint64 // sim engine events executed
	ctrl        ctrl.Counters
	transitions uint64  // laser level changes
	litMean     float64 // mean lit lasers, sampled at window boundaries
}

func (m opMix) perCycle(n uint64) float64 {
	if m.cycles == 0 {
		return 0
	}
	return float64(n) / float64(m.cycles)
}

// windows is how many reconfiguration windows every RC processed.
func (m opMix) windows() float64 {
	if m.boards == 0 {
		return 0
	}
	return float64(m.ctrl.Windows) / float64(m.boards)
}

// clockNS is the cost of one time.Now pair, subtracted from spans that
// bracket sub-microsecond calls.
func clockNS() float64 {
	const n = 20000
	start := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		sink += time.Since(start)
	}
	_ = sink
	return float64(time.Since(start).Nanoseconds()) / n
}

// perCall runs f on batches (doubling up to maxBatch calls) until dur has
// passed and returns nanoseconds per call.
func perCall(dur time.Duration, maxBatch int, f func(n int)) float64 {
	n, total := min(64, maxBatch), 0
	start := time.Now()
	for {
		f(n)
		total += n
		if el := time.Since(start); el >= dur {
			return float64(el.Nanoseconds()) / float64(total)
		}
		if n*2 <= maxBatch {
			n *= 2
		}
	}
}

// packetPool recycles the harnesses' packets, as core's free list does.
type packetPool []*flit.Packet

func (pp *packetPool) get(cfg core.Config) *flit.Packet {
	p := &flit.Packet{}
	if k := len(*pp); k > 0 {
		p, *pp = (*pp)[k-1], (*pp)[:k-1]
		p.Reset()
	}
	p.Size, p.FlitBytes = cfg.PacketBytes, cfg.FlitBytes
	return p
}

func (pp *packetPool) put(p *flit.Packet, now uint64) { *pp = append(*pp, p) }

// boardResult is what the electrical-board harness measured.
type boardResult struct {
	routerTickNS float64 // per Router.Tick that had work
	routerTicks  float64 // such ticks per cycle
	sourceTickNS float64 // per PacketSource.Tick that had work
	sourceTicks  float64 // such ticks per cycle
}

// benchBoard models one board's electrical domain: D node NICs and W
// receive-side sources feed a (D+W)x(D+W) router whose outputs are D
// ejection sinks and W sinks standing in for the transmitters. Packets
// enter at the per-board rates of the traced run: NIC injections split
// into local and outbound by the run's inter-board share, plus optical
// arrivals bound for local nodes.
func benchBoard(m opMix, seed uint64, dur time.Duration) boardResult {
	cfg := m.cfg
	d := cfg.NodesPerBoard
	w := cfg.Boards - 1
	ports := d + w
	r := router.MustNew(router.Config{
		Name: "ibi", Inputs: ports, Outputs: ports, VCs: cfg.VCs, BufDepth: cfg.BufDepth,
		Route: func(p *flit.Packet) int { return p.Dst },
	})
	var pool packetPool
	var res boardResult
	for port := 0; port < ports; port++ {
		depth := cfg.EjectDepth
		if port >= d {
			depth = cfg.FlitsPerPacket()
		}
		sink := link.NewPacketSink("sink", r.CreditSink(port), pool.put)
		r.ConnectOutput(port, router.OutputLink{Sink: sink, FlitCycles: cfg.FlitCyclesElec, DownVCs: cfg.VCs, DownDepth: depth})
	}
	sources := make([]*link.PacketSource, ports)
	for port := range sources {
		sources[port] = link.NewPacketSource("src", r.InputSink(port), cfg.VCs, cfg.BufDepth, cfg.FlitCyclesElec)
		r.SetInputCreditSink(port, sources[port])
	}

	nicRate := m.perCycle(m.injected) / float64(m.nodes)
	outbound := 0.0
	if m.injected > 0 {
		outbound = float64(m.opticalSent) / float64(m.injected)
	}
	rxRate := 0.0
	if w > 0 {
		rxRate = m.perCycle(m.opticalSent) / float64(m.boards) / float64(w)
	}
	draw := rng.New(seed)
	packet := func(dst int) *flit.Packet {
		p := pool.get(cfg)
		p.Dst = dst
		return p
	}

	clock := clockNS()
	var routerNS, sourceNS float64
	var routerTicks, sourceTicks, cycles uint64
	start := time.Now()
	for now := uint64(0); ; now++ {
		if now%256 == 0 && time.Since(start) >= dur {
			cycles = now
			break
		}
		for port := 0; port < d; port++ {
			if draw.Bernoulli(nicRate) {
				dst := draw.Intn(d)
				if w > 0 && draw.Bernoulli(outbound) {
					dst = d + draw.Intn(w)
				}
				sources[port].Enqueue(packet(dst))
			}
		}
		for port := d; port < ports; port++ {
			if draw.Bernoulli(rxRate) {
				sources[port].Enqueue(packet(draw.Intn(d)))
			}
		}
		t0 := time.Now()
		for _, s := range sources {
			if s.HasWork() {
				s.Tick(now)
				sourceTicks++
			}
		}
		t1 := time.Now()
		if r.HasWork() {
			r.Tick(now)
			routerTicks++
		}
		routerNS += float64(time.Since(t1).Nanoseconds()) - clock
		sourceNS += float64(t1.Sub(t0).Nanoseconds()) - clock
	}
	if routerTicks > 0 {
		res.routerTickNS = max(routerNS, 0) / float64(routerTicks)
	}
	if sourceTicks > 0 {
		res.sourceTickNS = max(sourceNS, 0) / float64(sourceTicks)
	}
	if cycles > 0 {
		res.routerTicks = float64(routerTicks) / float64(cycles)
		res.sourceTicks = float64(sourceTicks) / float64(cycles)
	}
	return res
}

// benchSinkPutFlit times PacketSink.PutFlit on a stream of whole packets.
func benchSinkPutFlit(cfg core.Config, dur time.Duration) float64 {
	sink := link.NewPacketSink("sink", nil, nil)
	p := &flit.Packet{Size: cfg.PacketBytes, FlitBytes: cfg.FlitBytes}
	flits := p.Flitize()
	now := uint64(0)
	return perCall(dur, 1<<16, func(n int) {
		for i := 0; i < n; i++ {
			sink.PutFlit(&flits[i%len(flits)], now)
			now++
		}
	})
}

// creditCounter stands in for the router output feeding a transmitter.
type creditCounter struct{ free []int }

func (c *creditCounter) PutCredit(vc int, readyAt uint64) { c.free[vc]++ }

// opticalResult is what the fabric harness measured.
type opticalResult struct {
	tickNS     float64 // per cycle under the workload's packet rate
	idleTickNS float64 // per cycle with nothing queued
	ffIdleNS   float64 // per cycle of Quiescent + FastForwardIdle
}

func newFabric(cfg core.Config) (*topology.Topology, *sim.Engine, *optical.Fabric, error) {
	top, err := topology.NewSRS(cfg.Boards, cfg.NodesPerBoard)
	if err != nil {
		return nil, nil, nil, err
	}
	eng := sim.NewEngine()
	fab, err := optical.NewFabric(top, eng, optical.Config{
		CycleNS: cfg.CycleNS, PropCycles: cfg.PropCyclesOpt, RelockCycles: cfg.RelockCycles,
		QueueCap: cfg.LaserQueueCap, VCs: cfg.VCs, FlitsPerPacket: cfg.FlitsPerPacket(),
	})
	return top, eng, fab, err
}

// benchOptical drives a full B-board fabric at the traced run's
// inter-board packet rate: whole packets enter the static transmitter for
// their destination as flits (credit-checked, as the IBI would), and each
// cycle costs one Fabric.Tick, which also delivers what is due.
func benchOptical(m opMix, seed uint64, dur time.Duration) (opticalResult, error) {
	var res opticalResult
	cfg := m.cfg
	top, _, fab, err := newFabric(cfg)
	if err != nil {
		return res, err
	}
	b, w := top.Boards(), top.Wavelengths()
	var pool packetPool
	credits := make([][]*creditCounter, b)
	for s := 0; s < b; s++ {
		credits[s] = make([]*creditCounter, w+1)
		for wl := 1; wl <= w; wl++ {
			cc := &creditCounter{free: make([]int, cfg.VCs)}
			for v := range cc.free {
				cc.free[v] = cfg.FlitsPerPacket()
			}
			credits[s][wl] = cc
			fab.Transmitter(s, wl).SetCreditSink(cc)
			fab.SetDeliver(s, wl, pool.put)
		}
	}
	rate := m.perCycle(m.opticalSent) / float64(b)
	draw := rng.New(seed)
	now := uint64(0)
	clock := clockNS()

	idle := perCall(dur/4, 1<<12, func(n int) {
		for i := 0; i < n; i++ {
			fab.Tick(now)
			now++
		}
	})
	res.idleTickNS = idle
	res.ffIdleNS = perCall(dur/4, 1<<12, func(n int) {
		if fab.Quiescent(now) {
			fab.FastForwardIdle(uint64(n))
		}
		now += uint64(n)
	})

	var busyNS float64
	var cycles uint64
	start := time.Now()
	for ; ; now++ {
		if cycles%256 == 0 && time.Since(start) >= dur/2 {
			break
		}
		cycles++
		t0 := time.Now()
		for s := 0; s < b && w > 0; s++ {
			if !draw.Bernoulli(rate) {
				continue
			}
			d := draw.Intn(b - 1)
			if d >= s {
				d++
			}
			wl := top.Wavelength(s, d)
			cc := credits[s][wl]
			vc := -1
			for v, n := range cc.free {
				if n == cfg.FlitsPerPacket() {
					vc = v
					break
				}
			}
			if vc < 0 {
				continue // reassembly buffers full: the IBI would hold the packet
			}
			p := pool.get(cfg)
			p.SrcBoard, p.DstBoard = s, d
			flits := p.Flitize()
			tx := fab.Transmitter(s, wl)
			for i := range flits {
				flits[i].VC = vc
				tx.PutFlit(&flits[i], now)
			}
			cc.free[vc] -= len(flits)
		}
		fab.Tick(now)
		busyNS += float64(time.Since(t0).Nanoseconds()) - clock
	}
	if cycles > 0 {
		res.tickNS = max(busyNS, 0) / float64(cycles)
	}
	return res, nil
}

// ctrlResult is what the Lock-Step harness measured.
type ctrlResult struct {
	windowNS float64
}

// benchCtrl times whole reconfiguration windows of the LS protocol on an
// otherwise idle fabric: ctrl.NewSystem + Start, then Engine.RunUntil
// from just before one window boundary to just before the next, which
// covers that window's snapshot, ring circulation and policy calls.
func benchCtrl(m opMix, dur time.Duration) (ctrlResult, error) {
	var res ctrlResult
	cfg := m.cfg
	top, eng, fab, err := newFabric(cfg)
	if err != nil {
		return res, err
	}
	cc := ctrl.DefaultConfig(cfg.Mode.PowerAware(), cfg.Mode.BandwidthReconfig())
	cc.Window, cc.MaxHold = cfg.Window, cfg.MaxHold
	sys, err := ctrl.NewSystem(top, fab, eng, cc)
	if err != nil {
		return res, err
	}
	sys.Start()
	defer eng.Shutdown()
	w := cfg.Window
	eng.RunUntil(2*w - 1) // two warm windows: one DPM, one DBR
	k := uint64(2)
	// An even number of windows, so DPM and DBR cycles weigh equally.
	ns := perCall(dur, 2, func(n int) {
		for i := 0; i < n; i++ {
			k++
			eng.RunUntil(k*w - 1)
		}
	})
	res.windowNS = ns
	return res, nil
}

// benchPolicy times the paper policy's two decision calls on a board of
// the workload's width: B-1 Power calls and one Bandwidth call, reported
// per call.
func benchPolicy(cfg core.Config, dur time.Duration) (float64, error) {
	b := cfg.Boards
	top, err := topology.NewSRS(b, cfg.NodesPerBoard)
	if err != nil {
		return 0, err
	}
	pol, err := policy.New(nil, policy.Params{
		Board: 0, Boards: b, Thresholds: ctrl.PaperPB(), Ladder: power.PaperLadder(),
		MaxHold: cfg.MaxHold, Window: cfg.Window, Seed: cfg.Seed,
	})
	if err != nil {
		return 0, err
	}
	ctx := &policy.BandwidthCtx{
		StaticOwner:  func(w int) int { return top.StaticOwner(0, w) },
		LaserHealthy: func(s, w int) bool { return true },
	}
	obs := make([]policy.ChanObs, b)
	assign := make([]int, b)
	var sink int
	ns := perCall(dur, 1<<10, func(n int) {
		for i := 0; i < n; i++ {
			for w := 1; w < b; w++ {
				util := float64((i+w)%10) / 10
				sink += pol.Power(policy.LinkObs{Wavelength: w, Dest: w % b, Level: 2, LinkUtil: util, BufUtil: util / 2})
				obs[w] = policy.ChanObs{Holder: top.StaticOwner(0, w), LinkUtil: util, BufUtil: util / 2}
				assign[w] = obs[w].Holder
			}
			ctx.Window = uint64(i)
			sink += len(pol.Bandwidth(ctx, obs, assign))
		}
	})
	_ = sink
	return ns / float64(b), nil
}

// microResult holds the single-call timings of the small layers.
type microResult struct {
	eventNS         float64 // sim: At + dispatch of one event
	processSwitchNS float64 // sim: one Process.Delay hand-off and back
	injectorStepNS  float64 // traffic: one Injector.Step
	bernoulliNS     float64 // rng: one Bernoulli draw
	advanceNS       float64 // stats: one Measurement.Advance
	onDeliverNS     float64 // stats: one labeled OnDeliver
	emitNS          float64 // telemetry: one Recorder.Emit
	jsonlEmitNS     float64 // telemetry: one JSONL.Emit
}

func benchMicro(m opMix, seed uint64, dur time.Duration) (microResult, error) {
	var res microResult
	cfg := m.cfg

	eng := sim.NewEngine()
	nop := func() {}
	res.eventNS = perCall(dur, 1<<14, func(n int) {
		base := eng.Now()
		for i := 1; i <= n; i++ {
			eng.At(base+uint64(i), nop)
		}
		eng.RunUntil(base + uint64(n))
	})

	peng := sim.NewEngine()
	res.processSwitchNS = perCall(dur, 1<<12, func(n int) {
		peng.SpawnProcess("p", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				p.Delay(1)
			}
		})
		peng.RunUntil(peng.Now() + uint64(n) + 1)
	})
	peng.Shutdown()

	pattern, err := traffic.NewGrouped(cfg.Pattern, m.nodes, cfg.NodesPerBoard)
	if err != nil {
		return res, err
	}
	inj := traffic.NewInjector(0, cfg.Rate(), pattern, rng.New(seed))
	var sink int
	res.injectorStepNS = perCall(dur, 1<<16, func(n int) {
		for i := 0; i < n; i++ {
			if dst, ok := inj.Step(); ok {
				sink += dst
			}
		}
	})
	stream := rng.New(seed)
	rate := cfg.Rate()
	res.bernoulliNS = perCall(dur, 1<<16, func(n int) {
		for i := 0; i < n; i++ {
			if stream.Bernoulli(rate) {
				sink++
			}
		}
	})
	_ = sink

	meas := stats.NewMeasurement(1<<62, 1)
	cycle := uint64(0)
	res.advanceNS = perCall(dur, 1<<16, func(n int) {
		for i := 0; i < n; i++ {
			meas.Advance(cycle)
			cycle++
		}
	})
	// A fresh Measurement per batch: labeled deliveries are all retained
	// for exact quantiles, so one instance would grow without bound.
	res.onDeliverNS = perCall(dur, 1<<14, func(n int) {
		ms := stats.NewMeasurement(0, 1<<62)
		ms.Advance(0)
		for i := 0; i < n; i++ {
			ms.OnDeliver(true, uint64(100+i%64), uint64(80+i%64))
		}
	})

	ev := telemetry.Event{Cycle: 1, Kind: telemetry.PacketDeliver, Packet: 42, Board: 3, Wavelength: -1, Dest: -1}
	rec := telemetry.NewRecorder(1 << 16)
	res.emitNS = perCall(dur, 1<<16, func(n int) {
		for i := 0; i < n; i++ {
			ev.Cycle++
			rec.Emit(ev)
		}
	})
	jsonl := telemetry.NewJSONL(io.Discard)
	res.jsonlEmitNS = perCall(dur, 1<<16, func(n int) {
		for i := 0; i < n; i++ {
			ev.Cycle++
			jsonl.Emit(ev)
		}
	})
	return res, jsonl.Flush()
}
