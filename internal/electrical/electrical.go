// Package electrical provides purely electrical baseline networks — a
// 2D mesh and a 2D torus of the same Spider-style virtual-channel
// routers used for the E-RAPID intra-board interconnect — for the
// electrical-vs-optical motivation of the paper's introduction. Routing
// is dimension-order (X then Y). On the mesh this is deadlock-free with
// wormhole switching as-is; on the torus, wrap-around links close rings,
// so packets switch to a second virtual-channel class after crossing
// each dimension's dateline (Dally's scheme), which the router's
// VC-class hook enforces.
//
// Both use the same channel parameters as the IBI (16-bit channels at
// 400 MHz: 4 cycles per 64-bit flit), so comparisons against E-RAPID
// isolate the interconnect organization rather than the link technology.
package electrical

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Topology selects the baseline network shape.
const (
	MeshTopology  = "mesh"
	TorusTopology = "torus"
)

// Config describes a baseline run.
type Config struct {
	// Topology is "mesh" (default) or "torus".
	Topology string
	// Width and Height give the grid dimensions (nodes = Width×Height).
	Width, Height int

	VCs        int
	BufDepth   int
	FlitCycles uint64
	EjectDepth int

	PacketBytes int
	FlitBytes   int

	Pattern string
	// Rate is the absolute injection rate in packets/node/cycle.
	Rate float64
	Seed uint64

	WarmupCycles     uint64
	MeasureCycles    uint64
	DrainLimitCycles uint64
}

// DefaultConfig returns an 8×8 mesh matching the paper's 64 nodes.
func DefaultConfig() Config {
	return Config{
		Topology: MeshTopology,
		Width:    8, Height: 8,
		VCs: 2, BufDepth: 1, FlitCycles: 4, EjectDepth: 8,
		PacketBytes: 64, FlitBytes: 8,
		Pattern: traffic.Uniform, Rate: 0.005, Seed: 1,
		WarmupCycles: 10000, MeasureCycles: 10000, DrainLimitCycles: 200000,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Width < 2 || c.Height < 1:
		return fmt.Errorf("electrical: mesh %dx%d too small", c.Width, c.Height)
	case c.VCs < 1 || c.BufDepth < 1 || c.FlitCycles < 1 || c.EjectDepth < 1:
		return fmt.Errorf("electrical: invalid router parameters")
	case c.Rate <= 0 || c.Rate > 1:
		return fmt.Errorf("electrical: rate %v out of (0,1]", c.Rate)
	case c.MeasureCycles < 1:
		return fmt.Errorf("electrical: MeasureCycles must be >= 1")
	case c.Topology != "" && c.Topology != MeshTopology && c.Topology != TorusTopology:
		return fmt.Errorf("electrical: topology %q (want %q or %q)", c.Topology, MeshTopology, TorusTopology)
	case c.Topology == TorusTopology && c.VCs%2 != 0:
		return fmt.Errorf("electrical: torus dateline routing needs an even VC count, got %d", c.VCs)
	}
	_, err := traffic.New(c.Pattern, c.Width*c.Height)
	return err
}

// Dateline-crossing bits kept in Packet.RouteState for torus routing.
const (
	crossedX uint8 = 1 << iota
	crossedY
)

// Port numbering inside each mesh router.
const (
	portLocal = iota
	portEast
	portWest
	portNorth
	portSouth
	numPorts
)

// Result summarizes a baseline run (a subset of the E-RAPID metrics).
type Result struct {
	Pattern     string
	Rate        float64
	Throughput  float64
	OfferedLoad float64
	AvgLatency  float64
	P95Latency  float64
	Cycles      uint64
	Truncated   bool
	Injected    uint64
	Delivered   uint64
}

// Mesh is an assembled baseline network.
type Mesh struct {
	cfg  Config
	meas *stats.Measurement

	routers   []*router.Router
	nics      []*link.PacketSource
	injectors []*traffic.Injector
	nextPkt   flit.PacketID

	injected  uint64
	delivered uint64
}

// New assembles a mesh baseline.
func New(cfg Config) (*Mesh, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Mesh{
		cfg:  cfg,
		meas: stats.NewMeasurement(cfg.WarmupCycles, cfg.MeasureCycles),
	}
	m.assemble()
	return m, nil
}

func (m *Mesh) nodeAt(x, y int) int { return y*m.cfg.Width + x }
func (m *Mesh) coords(n int) (x, y int) {
	return n % m.cfg.Width, n / m.cfg.Width
}

func (m *Mesh) assemble() {
	cfg := m.cfg
	n := cfg.Width * cfg.Height
	master := rng.New(cfg.Seed)
	pattern, _ := traffic.New(cfg.Pattern, n)

	// Routers with dimension-order routing. Tori additionally restrict
	// output VCs by dateline class.
	torus := cfg.Topology == TorusTopology
	for node := 0; node < n; node++ {
		node := node
		rcfg := router.Config{
			Name:     fmt.Sprintf("%s%d", cfg.Topology, node),
			Inputs:   numPorts,
			Outputs:  numPorts,
			VCs:      cfg.VCs,
			BufDepth: cfg.BufDepth,
		}
		if torus {
			rcfg.Route = func(p *flit.Packet) int { return m.routeTorus(node, p) }
			rcfg.VCClass = func(p *flit.Packet, out int) int { return m.torusClass(p, out) }
			rcfg.ClassCount = 2
		} else {
			rcfg.Route = func(p *flit.Packet) int { return m.routeDOR(node, p.Dst) }
		}
		m.routers = append(m.routers, router.MustNew(rcfg))
	}

	// Wire neighbor links both ways and local NIC/eject ports.
	for node := 0; node < n; node++ {
		x, y := m.coords(node)
		r := m.routers[node]

		nic := link.NewPacketSource(fmt.Sprintf("nic%d", node),
			r.InputSink(portLocal), cfg.VCs, cfg.BufDepth, cfg.FlitCycles)
		nic.OnDequeue = func(p *flit.Packet, now uint64) { p.NetworkAt = now }
		r.SetInputCreditSink(portLocal, nic)
		m.nics = append(m.nics, nic)

		sink := link.NewPacketSink(fmt.Sprintf("eject%d", node),
			r.CreditSink(portLocal), m.onDeliver)
		r.ConnectOutput(portLocal, router.OutputLink{
			Sink: sink, FlitCycles: cfg.FlitCycles,
			DownVCs: cfg.VCs, DownDepth: cfg.EjectDepth,
		})

		torus := cfg.Topology == TorusTopology
		connect := func(outPort int, nx, ny, theirInPort int) {
			if torus {
				nx = (nx + cfg.Width) % cfg.Width
				ny = (ny + cfg.Height) % cfg.Height
			}
			if nx < 0 || nx >= cfg.Width || ny < 0 || ny >= cfg.Height {
				// Mesh edge: terminate the port on a dead sink that must
				// never receive traffic (DOR never routes off the mesh).
				r.ConnectOutput(outPort, router.OutputLink{
					Sink: deadEnd{name: fmt.Sprintf("edge%d.%d", node, outPort)}, FlitCycles: cfg.FlitCycles,
					DownVCs: cfg.VCs, DownDepth: 1,
				})
				return
			}
			peer := m.routers[m.nodeAt(nx, ny)]
			r.ConnectOutput(outPort, router.OutputLink{
				Sink: peer.InputSink(theirInPort), FlitCycles: cfg.FlitCycles,
				DownVCs: cfg.VCs, DownDepth: cfg.BufDepth,
			})
			peer.SetInputCreditSink(theirInPort, r.CreditSink(outPort))
		}
		connect(portEast, x+1, y, portWest)
		connect(portWest, x-1, y, portEast)
		connect(portSouth, x, y+1, portNorth)
		connect(portNorth, x, y-1, portSouth)
	}

	for node := 0; node < n; node++ {
		m.injectors = append(m.injectors, traffic.NewInjector(node, cfg.Rate, pattern, master))
	}
}

// deadEnd panics when a flit reaches a mesh edge — an invariant check on
// dimension-order routing.
type deadEnd struct{ name string }

func (d deadEnd) PutFlit(f *flit.Flit, readyAt uint64) {
	panic(fmt.Sprintf("electrical: flit %v routed off the mesh at %s", f, d.name))
}

// routeDOR implements X-then-Y dimension-order routing.
func (m *Mesh) routeDOR(here, dst int) int {
	hx, hy := m.coords(here)
	dx, dy := m.coords(dst)
	switch {
	case dx > hx:
		return portEast
	case dx < hx:
		return portWest
	case dy > hy:
		return portSouth
	case dy < hy:
		return portNorth
	default:
		return portLocal
	}
}

// routeTorus implements X-then-Y dimension-order routing with shortest
// wrap direction, marking dateline crossings in the packet's RouteState.
// The dateline of each ring is the edge between coordinate max and 0.
func (m *Mesh) routeTorus(here int, p *flit.Packet) int {
	hx, hy := m.coords(here)
	dx, dy := m.coords(p.Dst)
	if dx != hx {
		dir, wraps := ringStep(hx, dx, m.cfg.Width)
		if wraps {
			p.RouteState |= crossedX
		}
		if dir > 0 {
			return portEast
		}
		return portWest
	}
	if dy != hy {
		dir, wraps := ringStep(hy, dy, m.cfg.Height)
		if wraps {
			p.RouteState |= crossedY
		}
		if dir > 0 {
			return portSouth
		}
		return portNorth
	}
	return portLocal
}

// torusClass returns the dateline VC class for the hop the packet is
// about to take: class 1 after crossing the current dimension's
// dateline, class 0 before. Ejection hops are unrestricted.
func (m *Mesh) torusClass(p *flit.Packet, out int) int {
	switch out {
	case portEast, portWest:
		if p.RouteState&crossedX != 0 {
			return 1
		}
		return 0
	case portNorth, portSouth:
		if p.RouteState&crossedY != 0 {
			return 1
		}
		return 0
	default:
		return -1
	}
}

// ringStep returns the shortest direction (+1/-1) from h to d on a ring
// of size n, and whether the next hop crosses the dateline (the edge
// between n-1 and 0).
func ringStep(h, d, n int) (dir int, wraps bool) {
	fwd := ((d-h)%n + n) % n
	if fwd <= n-fwd {
		// +1 direction; crossing happens when stepping from n-1 to 0.
		return 1, h == n-1
	}
	// -1 direction; crossing when stepping from 0 to n-1.
	return -1, h == 0
}

func (m *Mesh) onDeliver(p *flit.Packet, now uint64) {
	p.ReceivedAt = now
	m.delivered++
	m.meas.OnDeliver(p.Labeled, p.Latency(), p.NetworkLatency())
}

func (m *Mesh) step(now uint64) {
	m.meas.Advance(now)
	for i, inj := range m.injectors {
		dst, ok := inj.Step()
		if !ok {
			continue
		}
		m.nextPkt++
		p := &flit.Packet{
			ID: m.nextPkt, Src: i, Dst: dst,
			Size: m.cfg.PacketBytes, FlitBytes: m.cfg.FlitBytes,
			InjectedAt: now, Labeled: m.meas.OnInject(now),
		}
		m.injected++
		m.nics[i].Enqueue(p)
	}
	for _, nic := range m.nics {
		nic.Tick(now)
	}
	for _, r := range m.routers {
		r.Tick(now)
	}
}

// Run executes the warm-up / measure / drain methodology and returns
// the result.
func (m *Mesh) Run() *Result {
	limit := m.cfg.WarmupCycles + m.cfg.MeasureCycles + m.cfg.DrainLimitCycles
	truncated := false
	var now uint64
	for now = 0; ; now++ {
		m.step(now)
		if m.meas.Phase() == stats.Done {
			break
		}
		if now >= limit {
			truncated = true
			break
		}
	}
	n := m.cfg.Width * m.cfg.Height
	return &Result{
		Pattern:     m.cfg.Pattern,
		Rate:        m.cfg.Rate,
		Throughput:  m.meas.Throughput(n),
		OfferedLoad: m.meas.OfferedLoad(n),
		AvgLatency:  m.meas.Latency.Mean(),
		P95Latency:  m.meas.Latency.Quantile(0.95),
		Cycles:      now,
		Truncated:   truncated,
		Injected:    m.injected,
		Delivered:   m.delivered,
	}
}

// Run assembles and runs a mesh baseline in one call.
func Run(cfg Config) (*Result, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return m.Run(), nil
}
