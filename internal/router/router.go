// Package router implements the electrical intra-board interconnect
// (IBI) of E-RAPID as a cycle-accurate input-queued virtual-channel
// router, following the paper's Sec. 2.1 and Table 1 (SGI-Spider-style
// parameters): per-packet route computation (RC) and virtual-channel
// allocation (VA), per-flit switch allocation (SA) and switch traversal
// (ST), each taking one router clock cycle, with credit-based flow
// control and single-flit buffers by default.
package router

import (
	"fmt"
	"math/bits"

	"repro/internal/flit"
	"repro/internal/sim"
)

// Sink consumes flits. readyAt is the first cycle the flit may be acted
// upon downstream (arrival stamp); it must be strictly greater than the
// sending cycle so that transfers never ripple within one cycle.
type Sink interface {
	PutFlit(f *flit.Flit, readyAt uint64)
}

// CreditSink consumes flow-control credits, with the same stamp rule.
type CreditSink interface {
	PutCredit(vc int, readyAt uint64)
}

// RouteFunc maps a packet to an output port. It is consulted once per
// packet at RC time. It must return a valid output port; dynamic
// bandwidth re-allocation is expressed by returning different transmitter
// ports over time.
type RouteFunc func(p *flit.Packet) int

// Config parameterizes a router.
type Config struct {
	Name    string
	Inputs  int
	Outputs int
	// VCs is the number of virtual channels per input port.
	VCs int
	// BufDepth is the per-VC input buffer depth in flits (1 in Table 1).
	BufDepth int
	// Route computes the output port for each packet.
	Route RouteFunc
}

func (c Config) validate() error {
	switch {
	case c.Inputs < 1 || c.Outputs < 1:
		return fmt.Errorf("router %q: need >=1 input and output, got %d/%d", c.Name, c.Inputs, c.Outputs)
	case c.VCs < 1:
		return fmt.Errorf("router %q: need >=1 VC, got %d", c.Name, c.VCs)
	case c.BufDepth < 1:
		return fmt.Errorf("router %q: need buffer depth >=1, got %d", c.Name, c.BufDepth)
	case c.Route == nil:
		return fmt.Errorf("router %q: nil route function", c.Name)
	}
	return nil
}

// OutputLink describes the channel attached to an output port.
type OutputLink struct {
	Sink Sink
	// FlitCycles is the serialization time of one flit on the channel
	// (4 cycles for a 64-bit flit on a 16-bit 400 MHz channel).
	FlitCycles uint64
	// ExtraDelay is additional propagation delay added to arrival stamps.
	ExtraDelay uint64
	// DownVCs and DownDepth describe the downstream buffer organization
	// for credit initialization.
	DownVCs   int
	DownDepth int
}

type vcStage uint8

const (
	vcIdle vcStage = iota
	vcWaitVC
	vcActive
)

type bufEntry struct {
	f       *flit.Flit
	readyAt uint64
}

// inVC is the state of one input virtual channel.
type inVC struct {
	buf        []bufEntry
	stage      vcStage
	stageReady uint64
	outPort    int
	outVC      int
}

type outVCState struct {
	allocated bool
	credits   int
}

type outPort struct {
	link       OutputLink
	vcs        []outVCState
	nextFreeAt uint64
	rrVC       int // round-robin pointer for VC allocation
	rrIn       int // round-robin pointer for switch allocation
	// pendingCredits are credits from downstream not yet visible.
	pendingCredits []creditEntry
}

type creditEntry struct {
	vc      int
	readyAt uint64
}

// Counters aggregates router activity for tests and reports.
type Counters struct {
	FlitsIn     uint64
	FlitsOut    uint64
	PacketsOut  uint64
	SAGrants    uint64
	SAConflicts uint64 // cycles an input VC requested SA and lost
	VAStalls    uint64 // cycles a header waited for an output VC
	CreditStall uint64 // SA requests suppressed for lack of credits
}

// nomination is one input port's SA stage-1 winner.
type nomination struct{ inPort, inVC, out int }

// Router is a cycle-accurate input-queued VC router. Drive it by calling
// Tick exactly once per cycle with a monotonically increasing cycle
// number.
//
// The router keeps an ActiveSet per stage, so each stage visits only the
// VCs or outputs that can take part in it (an empty set is an empty
// walk), and HasWork — whether the whole Tick can be skipped — is a test
// of the same sets and the wheel. Sets are walked in ascending order,
// which is the exhaustive scan's order, so arbitration outcomes are
// bit-identical to it: no stage adds a member to the set it is walking,
// and whatever arrives during a Tick is stamped > now.
//
// Input VC v of port p is vcs[p*VCs+v]; the VC-level sets use the same
// numbering, so their ascending walk is the (port, VC) scan order.
//
// SA stage 1 visits only ready VCs; the rest wait on the wheel or a flit.
// Each would fail a time test before its credit test, so nothing moves.
type Router struct {
	cfg  Config
	vcs  []inVC
	outs []outPort
	// inputCreditSinks receive credits for freed input buffer slots.
	inputCreditSinks []CreditSink
	rrInVC           []int // per input port: round-robin over VCs for SA stage 1
	ctr              Counters

	// Stage indexes: a bit is up exactly while the state it names holds.
	rcCand sim.ActiveSet   // input VCs that are idle with a buffered head (RC)
	vaWait []sim.ActiveSet // per output: input VCs in vcWaitVC routed to it (VA)
	vaOuts sim.ActiveSet   // outputs whose vaWait is non-empty (VA)
	ready  sim.ActiveSet   // input VCs with saAt <= now (SA stage 1)
	saAt   []uint64        // per input VC: earliest cycle it can bid, or sim.MaxTime
	wheel  sim.Wheel       // VCs whose saAt lies ahead
	now    uint64          // cycle of the last Tick

	// Per-tick scratch buffers (no steady-state allocation). nomOuts is
	// the outputs named by this cycle's SA nominations, emptied by the
	// loop that serves them.
	vaSub      []int // one output's mature VA requests
	nomScratch []nomination
	nomOuts    sim.ActiveSet
	saBest     []int // per output: index into nomScratch of the SA winner
	saCount    []int // per output: nominations this cycle
}

// New builds a router from a validated config.
func New(cfg Config) (*Router, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Router{cfg: cfg}
	// The per-VC, per-output and buffer state lives in flat slabs so one
	// router's working set stays cache-local instead of scattered across
	// the heap.
	// Buffers hold at most BufDepth flits (the credit protocol enforces
	// it), so each VC's window of the buffer slab never grows.
	nvc, d := cfg.Inputs*cfg.VCs, cfg.BufDepth
	r.vcs = make([]inVC, nvc)
	bufSlab := make([]bufEntry, nvc*d)
	for i := range r.vcs {
		r.vcs[i].buf = bufSlab[i*d : i*d : (i+1)*d]
	}
	r.outs = make([]outPort, cfg.Outputs)
	r.inputCreditSinks = make([]CreditSink, cfg.Inputs)
	r.rrInVC = make([]int, cfg.Inputs)
	r.rcCand = sim.NewActiveSet(nvc)
	w := len(r.rcCand)
	waitSlab := make(sim.ActiveSet, cfg.Outputs*w)
	r.vaWait = make([]sim.ActiveSet, cfg.Outputs)
	for o := range r.vaWait {
		r.vaWait[o] = waitSlab[o*w : (o+1)*w : (o+1)*w]
	}
	r.vaOuts, r.nomOuts = sim.NewActiveSet(cfg.Outputs), sim.NewActiveSet(cfg.Outputs)
	r.ready, r.saAt = sim.NewActiveSet(nvc), make([]uint64, nvc)
	for i := range r.saAt {
		r.saAt[i] = sim.MaxTime
	}
	r.saBest = make([]int, cfg.Outputs)
	r.saCount = make([]int, cfg.Outputs)
	// Scratch capacities are bounded by the request populations (every
	// input VC at once for VA, one nomination per input for SA).
	r.vaSub = make([]int, 0, nvc)
	r.nomScratch = make([]nomination, 0, cfg.Inputs)
	return r, nil
}

// MustNew is New for statically valid configurations.
func MustNew(cfg Config) *Router {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Name returns the router's configured name.
func (r *Router) Name() string { return r.cfg.Name }

// Counters returns a snapshot of activity counters.
func (r *Router) Counters() Counters { return r.ctr }

// ConnectOutput attaches a channel to output port p. Must be called for
// every output port before the first Tick.
func (r *Router) ConnectOutput(p int, link OutputLink) {
	if link.Sink == nil {
		panic(fmt.Sprintf("router %q: nil sink on output %d", r.cfg.Name, p))
	}
	if link.DownVCs < 1 || link.DownDepth < 1 {
		panic(fmt.Sprintf("router %q: output %d needs downstream VCs/depth >= 1", r.cfg.Name, p))
	}
	if link.FlitCycles == 0 {
		link.FlitCycles = 1
	}
	op := &r.outs[p]
	op.link = link
	op.vcs = make([]outVCState, link.DownVCs)
	for v := range op.vcs {
		op.vcs[v].credits = link.DownDepth
	}
	// At most every downstream buffer slot's credit can be in flight or
	// unabsorbed at once, so the pending list never regrows after this.
	op.pendingCredits = make([]creditEntry, 0, link.DownVCs*link.DownDepth)
}

// SetInputCreditSink registers where credits for input port p's freed
// buffer slots are delivered (the upstream transmitter).
func (r *Router) SetInputCreditSink(p int, cs CreditSink) {
	r.inputCreditSinks[p] = cs
}

// inputSink adapts one input port to the Sink interface.
type inputSink struct {
	r    *Router
	port int
}

// PutFlit enqueues a flit into the input buffer for its VC. The upstream
// sender is responsible for respecting credits; overflow indicates a
// flow-control bug and panics.
func (s inputSink) PutFlit(f *flit.Flit, readyAt uint64) {
	r := s.r
	if f.VC < 0 || f.VC >= r.cfg.VCs {
		panic(fmt.Sprintf("router %q: flit on invalid VC %d at input %d", r.cfg.Name, f.VC, s.port))
	}
	i := s.port*r.cfg.VCs + f.VC
	vc := &r.vcs[i]
	if len(vc.buf) >= r.cfg.BufDepth {
		panic(fmt.Sprintf("router %q: input %d VC %d overflow (credit protocol violated)", r.cfg.Name, s.port, f.VC))
	}
	vc.buf = append(vc.buf, bufEntry{f: f, readyAt: readyAt})
	switch {
	case vc.stage == vcIdle:
		r.rcCand.Add(i)
	case vc.stage == vcActive && len(vc.buf) == 1:
		r.arm(i)
	}
	r.ctr.FlitsIn++
}

// InputSink returns the flit sink for input port p.
func (r *Router) InputSink(p int) Sink { return inputSink{r: r, port: p} }

// creditSink adapts one output port to the CreditSink interface.
type creditSink struct {
	r    *Router
	port int
}

// PutCredit returns one downstream buffer slot on the given VC. It waits
// in the pending list until SA finds the VC's count at 0 (absorbCredits).
func (s creditSink) PutCredit(vc int, readyAt uint64) {
	op := &s.r.outs[s.port]
	op.pendingCredits = append(op.pendingCredits, creditEntry{vc: vc, readyAt: readyAt})
}

// CreditSink returns the credit sink for output port p (handed to the
// downstream receiver).
func (r *Router) CreditSink(p int) CreditSink { return creditSink{r: r, port: p} }

// HasWork reports whether Tick could change any state this cycle: some
// VC holds a flit. An idle VC holding one is an RC candidate, a VC
// waiting for VA is in its output's waiters, and one past VA is ready or
// on the wheel. A VC past VA with an empty buffer waits on PutFlit, which
// arms the wheel, and pending credits are absorbed when read, so neither
// needs a Tick.
func (r *Router) HasWork() bool {
	return !r.rcCand.Empty() || !r.vaOuts.Empty() || !r.ready.Empty() || !r.wheel.Empty()
}

// BufferedTotal returns the number of flits buffered across all input
// VCs, by a scan of the buffers (telemetry samples it once a window).
func (r *Router) BufferedTotal() int {
	n := 0
	for i := range r.vcs {
		n += len(r.vcs[i].buf)
	}
	return n
}

// Tick advances the router one cycle. now must increase by exactly one
// between calls for utilization accounting to be meaningful. Each stage
// walks its own set, so a stage with nothing to do costs an empty walk.
func (r *Router) Tick(now uint64) {
	r.now = now
	r.routeCompute(now)
	r.vcAllocate(now)
	r.switchAllocateAndTraverse(now)
}

// absorbCredits makes an output's matured credits visible. SA calls it on
// reading a count at 0, so no matured credit is missing when it decides.
func (r *Router) absorbCredits(op *outPort, now uint64) {
	kept := op.pendingCredits[:0]
	for _, ce := range op.pendingCredits {
		if ce.readyAt <= now {
			op.vcs[ce.vc].credits++
			if op.vcs[ce.vc].credits > op.link.DownDepth {
				panic(fmt.Sprintf("router %q: credit overflow on output", r.cfg.Name))
			}
		} else {
			kept = append(kept, ce)
		}
	}
	op.pendingCredits = kept
}

// arm puts input VC i, past VA with a flit buffered, to sleep until its
// stage delay, head flit and output channel all allow a bid (> now).
func (r *Router) arm(i int) {
	vc := &r.vcs[i]
	at := max(vc.stageReady, vc.buf[0].readyAt, r.outs[vc.outPort].nextFreeAt)
	r.saAt[i] = at
	r.wheel.Arm(i, at)
}

// routeCompute starts the RC stage for idle VCs whose head flit arrived.
func (r *Router) routeCompute(now uint64) {
	for wi, word := range r.rcCand {
		for ; word != 0; word &= word - 1 {
			i := wi<<6 | bits.TrailingZeros64(word)
			vc := &r.vcs[i]
			head := vc.buf[0]
			if head.readyAt > now {
				continue
			}
			if !head.f.IsHead() {
				panic(fmt.Sprintf("router %q: non-head flit %v at idle VC %d.%d", r.cfg.Name, head.f, i/r.cfg.VCs, i%r.cfg.VCs))
			}
			out := r.cfg.Route(head.f.Packet)
			if out < 0 || out >= r.cfg.Outputs {
				panic(fmt.Sprintf("router %q: route for %v returned invalid port %d", r.cfg.Name, head.f.Packet, out))
			}
			vc.outPort = out
			vc.stage = vcWaitVC
			vc.stageReady = now + 1 // RC occupies this cycle
			r.rcCand.Remove(i)
			r.vaWait[out].Add(i)
			r.vaOuts.Add(out)
		}
	}
}

// vcAllocate grants free output VCs to waiting headers, one per output
// VC per cycle, with round-robin priority across input VCs.
//
// Outputs with waiters are served in ascending order, each over its
// mature waiters in (port, VC) order — the per-output scan of the
// exhaustive version. A grant on one output never changes another
// output's waiters or round-robin state, and within one output's turn
// grants only allocate, so once freeOutVC finds no free VC the rest of
// the turn would find none either.
func (r *Router) vcAllocate(now uint64) {
	for wi, word := range r.vaOuts {
		for ; word != 0; word &= word - 1 {
			o := wi<<6 | bits.TrailingZeros64(word)
			wait := r.vaWait[o]
			sub := r.vaSub[:0]
			for wj, w := range wait {
				for ; w != 0; w &= w - 1 {
					if i := wj<<6 | bits.TrailingZeros64(w); r.vcs[i].stageReady <= now {
						sub = append(sub, i)
					}
				}
			}
			r.vaSub = sub
			if len(sub) == 0 {
				continue
			}
			out := &r.outs[o]
			// Grant each request the first free output VC, round-robin
			// across requesters for fairness across cycles.
			granted := 0
			for ri := range sub {
				v := freeOutVC(out)
				if v < 0 {
					break
				}
				i := sub[(ri+out.rrIn)%len(sub)]
				out.vcs[v].allocated = true
				ivc := &r.vcs[i]
				ivc.outVC = v
				ivc.stage = vcActive
				ivc.stageReady = now + 1 // VA occupies this cycle
				r.arm(i)
				wait.Remove(i)
				granted++
			}
			if wait.Empty() {
				r.vaOuts.Remove(o)
			}
			r.ctr.VAStalls += uint64(len(sub) - granted)
			out.rrVC = (out.rrVC + 1) % len(out.vcs)
			out.rrIn = (out.rrIn + 1) % r.cfg.Inputs
		}
	}
}

// freeOutVC returns a free output VC, scanning from the output's
// round-robin pointer, or -1.
func freeOutVC(out *outPort) int {
	n := len(out.vcs)
	for dv := 0; dv < n; dv++ {
		if v := (out.rrVC + dv) % n; !out.vcs[v].allocated {
			return v
		}
	}
	return -1
}

// switchAllocateAndTraverse performs separable SA (input stage then
// output stage) and moves the granted flits onto their output channels.
func (r *Router) switchAllocateAndTraverse(now uint64) {
	// Stage 1: each input port nominates one requesting VC (round-robin).
	// Only ports with a ready VC can nominate; their ready VCs are
	// contiguous bits of ready, which a port may straddle across words.
	r.wheel.Turn(now, r.ready, r.saAt)
	noms := r.nomScratch[:0]
	nvc := r.cfg.VCs
	last := -1
	for wi, word := range r.ready {
		for ; word != 0; word &= word - 1 {
			p := (wi<<6 | bits.TrailingZeros64(word)) / nvc
			if p == last {
				continue
			}
			last = p
			for v, n := r.rrInVC[p], 0; n < nvc; n++ {
				next := v + 1
				if next == nvc {
					next = 0
				}
				if i := p*nvc + v; r.ready.Has(i) && r.saEligible(i, now) {
					noms = append(noms, nomination{inPort: p, inVC: v, out: r.vcs[i].outPort})
					r.rrInVC[p] = next
					break
				}
				v = next
			}
		}
	}
	r.nomScratch = noms
	if len(noms) == 0 {
		return
	}
	// Stage 2: each output port grants one nomination (round-robin by
	// input port index). Winners per output are found in one pass over
	// the nominations; since a grant only mutates its own output's state,
	// precomputing all winners matches the per-output scan exactly.
	for i := range noms {
		op := noms[i].out
		if r.saCount[op] == 0 {
			r.saBest[op] = i
		} else {
			out := &r.outs[op]
			// Priority: smallest (inPort - rrIn) mod Inputs wins.
			cur := noms[r.saBest[op]]
			curKey := ((cur.inPort - out.rrIn) + r.cfg.Inputs) % r.cfg.Inputs
			key := ((noms[i].inPort - out.rrIn) + r.cfg.Inputs) % r.cfg.Inputs
			if key < curKey {
				r.saBest[op] = i
			}
		}
		r.saCount[op]++
		r.nomOuts.Add(op)
	}
	for wi, word := range r.nomOuts {
		r.nomOuts[wi] = 0
		for ; word != 0; word &= word - 1 {
			op := wi<<6 | bits.TrailingZeros64(word)
			// Losers on this output count as conflicts.
			r.ctr.SAConflicts += uint64(r.saCount[op] - 1)
			r.saCount[op] = 0
			nm := noms[r.saBest[op]]
			r.traverse(nm.inPort, nm.inVC, now)
			r.outs[op].rrIn = (nm.inPort + 1) % r.cfg.Inputs
		}
	}
}

// saEligible reports whether ready input VC i can request the switch
// this cycle. A busy output puts it to sleep until the output frees
// (nextFreeAt only grows); one short of credits stalls.
func (r *Router) saEligible(i int, now uint64) bool {
	vc := &r.vcs[i]
	out := &r.outs[vc.outPort]
	if out.nextFreeAt > now {
		r.ready.Remove(i)
		r.arm(i)
		return false
	}
	if out.vcs[vc.outVC].credits <= 0 {
		r.absorbCredits(out, now)
		if out.vcs[vc.outVC].credits <= 0 {
			r.ctr.CreditStall++
			return false
		}
	}
	return true
}

// traverse moves the head flit of (inPort, inVC) onto its output channel.
func (r *Router) traverse(inPort, inVC int, now uint64) {
	i := inPort*r.cfg.VCs + inVC
	vc := &r.vcs[i]
	entry := vc.buf[0]
	copy(vc.buf, vc.buf[1:])
	vc.buf = vc.buf[:len(vc.buf)-1]

	out := &r.outs[vc.outPort]
	f := entry.f
	f.VC = vc.outVC
	out.vcs[vc.outVC].credits--
	out.nextFreeAt = now + out.link.FlitCycles
	arrival := now + out.link.FlitCycles + out.link.ExtraDelay
	if arrival <= now {
		arrival = now + 1
	}
	out.link.Sink.PutFlit(f, arrival)
	r.ctr.FlitsOut++
	r.ctr.SAGrants++

	// Return the freed input buffer slot upstream (1-cycle credit delay,
	// Table 1).
	if cs := r.inputCreditSinks[inPort]; cs != nil {
		cs.PutCredit(inVC, now+1)
	}

	r.ready.Remove(i)
	r.saAt[i] = sim.MaxTime
	if f.IsTail() {
		// Release the output VC and the input VC; a next packet's head
		// already buffered becomes an RC candidate for the next cycle.
		out.vcs[vc.outVC].allocated = false
		vc.stage = vcIdle
		if len(vc.buf) > 0 {
			r.rcCand.Add(i)
		}
		r.ctr.PacketsOut++
	} else if len(vc.buf) > 0 {
		r.arm(i)
	}
}

// CheckIndex verifies, by exhaustive scan, that every ActiveSet bit, each
// VC's saAt and wheel entry, the wheel's entry count and HasWork agree
// with the state they summarize; tests call it between Ticks. It returns
// the first disagreement found.
func (r *Router) CheckIndex() error {
	work, waiting, asleep := 0, 0, 0
	for i := range r.vcs {
		vc := &r.vcs[i]
		// An idle VC holding a flit is an RC candidate; any other holds
		// a flit past RC. Either is work for Tick.
		if len(vc.buf) > 0 {
			work++
		}
		if cand := vc.stage == vcIdle && len(vc.buf) > 0; r.rcCand.Has(i) != cand {
			return fmt.Errorf("router %q: VC %d (stage %d, %d flits) RC-candidate bit %v, want %v", r.cfg.Name, i, vc.stage, len(vc.buf), r.rcCand.Has(i), cand)
		}
		if vc.stage == vcWaitVC {
			waiting++
			if !r.vaWait[vc.outPort].Has(i) {
				return fmt.Errorf("router %q: VC %d waits for output %d but is not in its VA waiters", r.cfg.Name, i, vc.outPort)
			}
		}
		if at := r.saAt[i]; at > r.now && at != sim.MaxTime {
			asleep++
		}
		if err := r.checkSA(i); err != nil {
			return err
		}
	}
	members := 0
	for o := range r.outs {
		n := 0
		for _, w := range r.vaWait[o] {
			n += bits.OnesCount64(w)
		}
		members += n
		if r.vaOuts.Has(o) != (n > 0) {
			return fmt.Errorf("router %q: output %d has %d VA waiters, bit %v", r.cfg.Name, o, n, r.vaOuts.Has(o))
		}
	}
	if r.HasWork() != (work > 0) {
		return fmt.Errorf("router %q: %d VCs hold flits, but HasWork %v", r.cfg.Name, work, r.HasWork())
	}
	if r.wheel.Len() != asleep {
		return fmt.Errorf("router %q: wheel holds %d entries, %d VCs bid after cycle %d", r.cfg.Name, r.wheel.Len(), asleep, r.now)
	}
	if members != waiting {
		return fmt.Errorf("router %q: VA waiter sets hold %d VCs, %d are waiting", r.cfg.Name, members, waiting)
	}
	if !r.nomOuts.Empty() {
		return fmt.Errorf("router %q: nomination scratch set not emptied", r.cfg.Name)
	}
	return nil
}

// checkSA verifies input VC i's saAt, ready bit and wheel entry: a VC
// past VA with a flit buffered bids no earlier than its stage delay and
// head allow, nor later than its output frees, and is ready once that
// cycle is ticked; any other VC is never ready.
func (r *Router) checkSA(i int) error {
	vc, at, lo, hi := &r.vcs[i], r.saAt[i], sim.MaxTime, sim.MaxTime
	if vc.stage == vcActive && len(vc.buf) > 0 {
		lo = max(vc.stageReady, vc.buf[0].readyAt)
		hi = max(lo, r.outs[vc.outPort].nextFreeAt)
	}
	if at < lo || at > hi || r.ready.Has(i) != (at <= r.now) || at > r.now && at != sim.MaxTime && !r.wheel.Armed(i, at) {
		return fmt.Errorf("router %q: VC %d (stage %d, %d flits) at cycle %d: saAt %d, want [%d, %d]; ready %v, armed %v", r.cfg.Name, i, vc.stage, len(vc.buf), r.now, at, lo, hi, r.ready.Has(i), r.wheel.Armed(i, at))
	}
	return nil
}
