// Deterministic intra-run parallelism: the system side of the pipelined
// speculative compute/commit cycle engine.
//
// Five logical phases make up a cycle in parallel mode:
//
//	head    engine events (LS control), due optical deliveries, fault
//	        strikes, measurement advance, metering switch
//	draw    per shard: injector RNG draws (independent per-node streams)
//	        into each board's draw outbox
//	admit   packet admission in global node order: IDs, labeling, pool
//	        recycling, inject events, NIC enqueue
//	tick    per shard: NIC ticks, rx ticks, IBI tick, fabric board tick
//	        — board-local state only, shared effects deferred into
//	        per-board outboxes
//	commit  outboxes drained in ascending board order (NIC net-enter
//	        events, deliveries, fabric side effects), then the
//	        telemetry observer
//
// The schedule is *pipelined*: the phases of consecutive cycles overlap,
// which packs the five phases into TWO barrier crossings per
// steady-state cycle (down from four in the unpipelined engine):
//
//	parallel section   tick(c) then speculative draw(c+1), per shard
//	barrier
//	serial section     commit(c); head(c+1); admit(c+1); begin-tick
//	barrier
//
// The speculative draw is sound because injector draws are
// state-independent: each node's decision sequence depends only on its
// own derived RNG stream, which nothing in head/tick/commit ever reads
// or writes. Drawing cycle c+1 while cycle c is still ticking therefore
// consumes exactly the stream positions the serial engine would consume
// at c+1 — bit-identical, including the Lock-Step exchange at window
// boundaries (head) that runs serially *after* the draws were staged.
// The one thing that can invalidate staged draws is a parameter change
// on the injectors themselves (SetInjectionRate): each speculative draw
// snapshots the injector's pre-draw state into its board outbox, and
// invalidateSpec rewinds every stream to its snapshot so the next epoch
// redraws under the new parameters. LS level decisions and fault
// strikes never touch the streams, so they never force a discard.
//
// Staged draws also carry *across* epochs: the last tick phase of an
// epoch pre-draws the first cycle of the next one, and stepEpoch
// publishes the staged state (specFor) so the next dispatch skips its
// entry draw — a Run's steady window-to-window hand-off keeps the
// pipeline full.
//
// Every serial sub-order above matches the order the serial step visits
// the same points in (the serial step iterates NICs in node order,
// boards in ascending order, transmitters and lasers board-major), so a
// parallel run commits identical state — including the float-addition
// order of the power meter and the byte order of the telemetry stream —
// regardless of worker count.
//
// Dispatch is epoch-granular, not cycle-granular. The pool hands the
// workers ONE closure per epoch (a run of cycles up to the next
// reconfiguration-window boundary, the cycle limit, or measurement
// Done); within the epoch the workers stay resident and synchronize
// with a spin barrier at each phase edge, zero channel operations. The
// serial phases all run on worker 0 (the caller) between barriers. At
// epoch entry, worker 0 runs the first cycle's serial head (at window
// boundaries that is the whole LS/commit exchange) while the other
// workers pre-draw the first cycle's injections in parallel — unless a
// previous epoch already staged them.
package core

import (
	"repro/internal/flit"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// injDraw is one positive injector decision from a draw phase.
type injDraw struct{ node, dst int32 }

// pendingDeliver is one packet ejected during a tick phase, awaiting
// its serial delivery accounting.
type pendingDeliver struct {
	p  *flit.Packet
	at uint64
}

// boardOutbox is one board's deferred core-layer side effects for the
// in-flight cycle, owned exclusively by the board's worker during
// parallel phases and drained serially at commit. Backing arrays are
// retained across cycles. netEnter stores only packet IDs: the event's
// cycle is the committing cycle and its board is the outbox index, so
// one word per event suffices. preDraw holds the board's injectors'
// pre-draw state snapshots (node order) for the staged speculative
// draws, so invalidateSpec can rewind them. The pad keeps adjacent
// boards' slice headers off a shared cache line.
type boardOutbox struct {
	draws     []injDraw
	netEnter  []uint64
	delivered []pendingDeliver
	preDraw   []traffic.State
	_         [32]byte
}

// parState is the parallel-stepping state: the worker pool, the static
// board shard assignment, one outbox per board, the epoch cursor and
// the speculation bookkeeping.
//
// The scalar fields (now, end, stop, computing) are written only by
// worker 0 inside the serial sections between barriers; the barriers
// publish them to the other workers (sequenced atomics, recognized by
// the race detector), so plain loads suffice. The spec fields are
// touched only outside Epoch dispatches (stepEpoch and driver calls).
type parState struct {
	pool *sim.Pool
	body func(id int)
	// shardLo/shardHi give worker id the contiguous board range
	// [shardLo[id], shardHi[id]). Static assignment keeps each board's
	// outbox and shard state resident in one worker's cache across the
	// whole run.
	shardLo, shardHi []int

	computing bool
	now, end  uint64
	stop      bool

	// specHave marks that the outboxes hold staged draws for cycle
	// specFor (always the next cycle to simulate, unless a driver
	// mutated the injectors in between); entrySkipDraw tells the next
	// epoch's entry to consume them instead of drawing.
	specHave      bool
	specFor       uint64
	entrySkipDraw bool

	outboxes []boardOutbox
}

// enableParallel switches the system to pipelined epoch stepping with
// the given worker count (clamped to the board count — boards are the
// shard unit).
func (s *System) enableParallel(workers int) {
	nb := len(s.boards)
	if workers > nb {
		workers = nb
	}
	par := &parState{
		pool:     sim.NewPool(workers),
		outboxes: make([]boardOutbox, nb),
	}
	d := s.top.NodesPerBoard()
	for bi := range par.outboxes {
		par.outboxes[bi].preDraw = make([]traffic.State, d)
	}
	workers = par.pool.Workers()
	par.shardLo = make([]int, workers)
	par.shardHi = make([]int, workers)
	q, r := nb/workers, nb%workers
	lo := 0
	for id := 0; id < workers; id++ {
		hi := lo + q
		if id < r {
			hi++
		}
		par.shardLo[id], par.shardHi[id] = lo, hi
		lo = hi
	}
	par.body = s.epochBody
	s.par = par
	s.fab.EnableParallel()
}

// Workers returns the effective intra-run worker count (1 for serial
// systems).
func (s *System) Workers() int {
	if s.par == nil {
		return 1
	}
	return s.par.pool.Workers()
}

// Close releases the worker pool's goroutines. It is idempotent, safe
// on serial systems, and called by Run; drivers that step a parallel
// system manually should Close it when done.
func (s *System) Close() {
	if s.par != nil {
		s.par.pool.Close()
	}
}

// drawBoard runs a draw phase for one board: step the board's
// injectors (each on its own derived RNG stream) and record the
// positive draws, in node order, in the board's outbox.
func (s *System) drawBoard(bi int) {
	base := s.top.NodeID(bi, 0)
	d := s.top.NodesPerBoard()
	ob := &s.par.outboxes[bi]
	draws := ob.draws[:0]
	for n := base; n < base+d; n++ {
		if dst, ok := s.injectors[n].Step(); ok {
			draws = append(draws, injDraw{node: int32(n), dst: int32(dst)})
		}
	}
	ob.draws = draws
}

// drawBoardSpec is drawBoard with pre-draw state snapshots: the staged
// draws may outlive the epoch (or be invalidated by a rate change
// before admission), so each injector's state is saved first, giving
// invalidateSpec an exact rewind point.
func (s *System) drawBoardSpec(bi int) {
	base := s.top.NodeID(bi, 0)
	d := s.top.NodesPerBoard()
	ob := &s.par.outboxes[bi]
	draws := ob.draws[:0]
	for i, n := 0, base; i < d; i, n = i+1, n+1 {
		src := s.injectors[n]
		ob.preDraw[i] = src.Save()
		if dst, ok := src.Step(); ok {
			draws = append(draws, injDraw{node: int32(n), dst: int32(dst)})
		}
	}
	ob.draws = draws
}

// invalidateSpec discards staged speculative draws: every injector is
// rewound to its pre-draw snapshot and the staged decisions are
// dropped, so the next epoch redraws the cycle under whatever injector
// parameters apply then. Called on any injector mutation
// (SetInjectionRate) and on Reset; a no-op when nothing is staged.
func (s *System) invalidateSpec() {
	par := s.par
	if par == nil || !par.specHave {
		return
	}
	par.specHave = false
	for bi := range par.outboxes {
		ob := &par.outboxes[bi]
		base := s.top.NodeID(bi, 0)
		for i := range ob.preDraw {
			s.injectors[base+i].Restore(ob.preDraw[i])
		}
		ob.draws = ob.draws[:0]
	}
}

// admit drains the staged draws for cycle now in ascending board order
// (contiguous ascending board shards keep each outbox in node order, so
// this reproduces the serial injectAll sequence) and opens the fabric's
// next board tick. Serial sections only.
func (s *System) admit(now uint64) {
	par := s.par
	for bi := range par.outboxes {
		ob := &par.outboxes[bi]
		for _, dr := range ob.draws {
			s.injectOne(int(dr.node), int(dr.dst), now)
		}
	}
	s.fab.BeginBoardTick()
}

// tickBoardCompute runs a tick phase for one board, in the serial
// step's intra-board order: node NICs, rx sources, the IBI router, then
// the board's slice of the optical fabric. Cross-board interactions all
// mature next cycle (flit readyAt and credit stamps are > now), so
// per-board grouping commutes with the serial all-NICs-first order.
func (s *System) tickBoardCompute(bi int, now uint64) {
	bd := s.boards[bi]
	tickSources(bd.nicSet, bd.nics, now)
	bd.tickRxIBI(now)
	s.fab.TickBoard(bi, now)
}

// commitCycle is the serial commit of one cycle: drain outboxes in
// canonical board order — NIC net-enter events, then deliveries, then
// the fabric's deferred side effects (tx sub-phases, laser sub-phases,
// idle-power sample, deactivations) — exactly the serial step's
// emission order, then the telemetry observer.
func (s *System) commitCycle(now uint64) {
	par := s.par
	if s.tel != nil {
		for bi := range par.outboxes {
			ob := &par.outboxes[bi]
			for _, id := range ob.netEnter {
				s.tel.Emit(telemetry.Event{Cycle: now, Kind: telemetry.PacketNetEnter,
					Packet: id, Board: bi, Wavelength: -1, Dest: -1})
			}
			ob.netEnter = ob.netEnter[:0]
		}
	}
	for bi := range par.outboxes {
		ob := &par.outboxes[bi]
		for i := range ob.delivered {
			s.deliverNow(ob.delivered[i].p, ob.delivered[i].at)
			ob.delivered[i] = pendingDeliver{}
		}
		ob.delivered = ob.delivered[:0]
	}
	s.fab.CommitBoardTick(now)

	if s.telemetry != nil {
		s.telemetry.observe(now)
	}
	s.cycle = now
}

// epochBody is the per-worker epoch closure: every worker (worker 0 is
// the dispatching caller) runs this once per epoch and loops over the
// epoch's cycles internally, meeting the others at a barrier on each
// phase edge. Worker 0 runs the serial phases between barriers.
//
// Entry (two barriers): worker 0 runs the first cycle's serial head
// while the other workers pre-draw its injections (skipped entirely
// when a previous epoch staged them); after the first barrier worker 0
// admits the draws and opens the board tick.
//
// Steady state (two barriers per cycle): the parallel section ticks
// cycle c and speculatively pre-draws cycle c+1; the serial section
// commits c, runs c+1's head, admits the staged draws and opens the
// next board tick. stepHead only touches engine/fault/measurement
// state no parallel phase reads, and the injector streams it is
// pipelined against are read by no one else, so the interleavings are
// race-free and order-equivalent to the serial step.
func (s *System) epochBody(id int) {
	par := s.par
	lo, hi := par.shardLo[id], par.shardHi[id]
	now := par.now
	if id == 0 {
		s.stepHead(now)
	}
	if !par.entrySkipDraw {
		// Worker 0 draws its own shard after the head; the others draw
		// theirs concurrently with it.
		for bi := lo; bi < hi; bi++ {
			s.drawBoard(bi)
		}
	}
	par.pool.Barrier()
	if id == 0 {
		s.admit(now)
		par.computing = true
	}
	par.pool.Barrier()
	for {
		// Parallel section: tick cycle `now`, then speculatively pre-draw
		// cycle now+1 while worker 0's serial section is still pending.
		for bi := lo; bi < hi; bi++ {
			s.tickBoardCompute(bi, now)
		}
		for bi := lo; bi < hi; bi++ {
			s.drawBoardSpec(bi)
		}
		par.pool.Barrier()
		if id == 0 {
			par.computing = false
			s.commitCycle(now)
			par.now = now + 1
			par.stop = par.now >= par.end || s.meas.Phase() == stats.Done
			if !par.stop {
				s.stepHead(par.now)
				s.admit(par.now)
				par.computing = true
			}
		}
		par.pool.Barrier()
		if par.stop {
			return
		}
		now = par.now
	}
}

// stepEpoch advances the system n cycles (fewer if measurement reaches
// Done) in one pool dispatch and returns the last simulated cycle.
func (s *System) stepEpoch(n uint64) uint64 {
	par := s.par
	par.now = s.nextCycle
	par.end = s.nextCycle + n
	par.stop = false
	if par.specHave && par.specFor != par.now {
		// Staged draws for some other cycle (unreachable through the
		// public stepping API, but cheap to guard): rewind and redraw.
		s.invalidateSpec()
	}
	par.entrySkipDraw = par.specHave
	par.specHave = false
	par.pool.Epoch(par.body)
	// The loop's parallel sections always pre-draw one cycle ahead, so
	// on exit the outboxes hold staged draws for par.now — the next
	// cycle to simulate. Publish them for the next epoch.
	par.specHave = true
	par.specFor = par.now
	s.nextCycle = par.now
	return par.now - 1
}
