// The cycle loop: every system steps through epochBody over static
// board shards, one per pool member. Workers <= 1 means one shard
// covering every board.
//
// One cycle runs in three parts, with a barrier between consecutive
// parts (a no-op on a width-1 pool):
//
//	head     serial: engine events (LS control), due optical
//	         deliveries, fault strikes, measurement advance, metering
//	         switch (stepHead); injector draws and packet admission in
//	         global node order (injectAll); BeginBoardTick
//	compute  per shard, phase-major over its boards [lo, hi): NIC
//	         ticks, then rx sources and the IBI router, then the
//	         fabric's transmitters and lasers (TickBoards)
//	commit   serial: outbox and fabric-log replay in ascending board
//	         order (more than one shard only), the idle-power sample
//	         and the deactivation refreshes (CommitBoardTick), then the
//	         telemetry observer
//
// The commit of cycle c and the head of c+1 form one serial section, so
// a cycle costs two barrier crossings.
//
// With one shard nothing is deferred: NIC net-enter events, deliveries
// and fabric side effects apply where they happen, and the compute part
// visits every NIC in node order, then every board's rx sources and
// router, then the fabric tx and laser phases — the serial step. With
// several shards, each board's shared side effects go into its outbox
// (core) and log (optical) and the commit replays them in ascending
// board order, which is the order one shard produces them in.
// Cross-board interactions all mature next cycle (flit readyAt and
// credit stamps are > now), so per-shard grouping commutes with the
// all-boards phase order, and a sharded run commits identical state —
// including the float-addition order of the power meter and the byte
// order of the telemetry stream — regardless of worker count.
//
// Dispatch is epoch-granular, not cycle-granular: StepN hands the pool
// ONE closure for the whole batch (Run's batches end at the next
// reconfiguration-window boundary, the cycle limit, or measurement
// Done); within it the workers stay resident and meet at a spin
// barrier on each part edge, zero channel operations. The serial parts
// run on worker 0, the caller.
package core

import (
	"repro/internal/flit"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// pendingDeliver is one packet ejected during a compute part, awaiting
// its serial delivery accounting.
type pendingDeliver struct {
	p  *flit.Packet
	at uint64
}

// boardOutbox is one board's deferred core-layer side effects for the
// in-flight cycle, owned exclusively by the board's worker during the
// compute part and drained serially at commit. Backing arrays are
// retained across cycles. netEnter stores only packet IDs: the event's
// cycle is the committing cycle and its board is the outbox index, so
// one word per event suffices. The pad keeps adjacent boards' slice
// headers off a shared cache line.
type boardOutbox struct {
	netEnter  []uint64
	delivered []pendingDeliver
	_         [32]byte
}

// parState is the cycle loop's state: the worker pool, the static board
// shard assignment, one outbox per board (none with one shard) and the
// epoch cursor.
//
// The scalar fields (now, end, stop) are written only by worker 0
// inside the serial sections between barriers; the barriers publish
// them to the other workers (sequenced atomics, recognized by the race
// detector), so plain loads suffice.
type parState struct {
	pool *sim.Pool
	body func(id int)
	// shardLo/shardHi give worker id the contiguous board range
	// [shardLo[id], shardHi[id]). Static assignment keeps each board's
	// outbox and shard state resident in one worker's cache across the
	// whole run.
	shardLo, shardHi []int

	now, end uint64
	stop     bool

	// outboxes is nil with one shard; with several, the compute part's
	// NIC net-enter events and deliveries go here (only the compute part
	// ticks NICs and IBI routers).
	outboxes []boardOutbox
}

// newCycleLoop gives the system its pool of the given worker count
// (clamped to the board count — boards are the shard unit) and one
// shard per pool member.
func (s *System) newCycleLoop(workers int) {
	s.par = &parState{pool: sim.NewPool(min(workers, len(s.boards))), body: s.epochBody}
	s.shard(s.par.pool.Workers())
}

// shard splits the boards into n contiguous ranges, one per pool
// member. Outboxes and fabric logs exist only when n > 1.
func (s *System) shard(n int) {
	par := s.par
	nb := len(s.boards)
	par.shardLo = make([]int, n)
	par.shardHi = make([]int, n)
	q, r := nb/n, nb%n
	lo := 0
	for id := 0; id < n; id++ {
		hi := lo + q
		if id < r {
			hi++
		}
		par.shardLo[id], par.shardHi[id] = lo, hi
		lo = hi
	}
	par.outboxes = nil
	if n > 1 {
		par.outboxes = make([]boardOutbox, nb)
	}
	s.fab.EnableParallel(n > 1)
}

// Workers returns the effective intra-run worker count.
func (s *System) Workers() int { return s.par.pool.Workers() }

// Close releases the worker pool's goroutines and collapses the system
// to one shard, so later steps still tick every board. It is
// idempotent, and called by Run; drivers that step a multi-worker
// system manually should Close it when done.
func (s *System) Close() {
	s.par.pool.Close()
	s.shard(1)
}

// beginCycle is the serial head of cycle now: stepHead, packet
// admission in global node order, and the opening of the board ticks.
func (s *System) beginCycle(now uint64) {
	s.stepHead(now)
	s.injectAll(now)
	s.fab.BeginBoardTick()
}

// commitCycle is the serial commit of cycle now: with more than one
// shard, drain the outboxes in ascending board order — NIC net-enter
// events, then deliveries — then close the fabric's board ticks (its
// log replay, idle-power sample and deactivation refreshes), then run
// the telemetry observer.
func (s *System) commitCycle(now uint64) {
	if par := s.par; par.outboxes != nil {
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
	}
	s.fab.CommitBoardTick(now)
	if s.telemetry != nil {
		s.telemetry.observe(now)
	}
	s.cycle = now
}

// epochBody is the per-worker epoch closure: every worker (worker 0 is
// the dispatching caller) runs it once per StepN and loops over the
// batch's cycles internally, meeting the others at a barrier on each
// part edge. Worker 0 runs the serial sections between barriers;
// stepHead and admission touch only state no compute part reads
// concurrently, so the interleaving is race-free.
func (s *System) epochBody(id int) {
	par := s.par
	lo, hi := par.shardLo[id], par.shardHi[id]
	boards := s.boards[lo:hi]
	if id == 0 {
		s.beginCycle(par.now)
	}
	par.pool.Barrier()
	for {
		now := par.now
		// Active-set scheduling: visit the components that have work in
		// the order an exhaustive scan would (the Tick of a component with
		// no work is a no-op, so skipping it changes nothing).
		for _, bd := range boards {
			tickSources(bd.nicSet, bd.nics, now)
		}
		for _, bd := range boards {
			bd.tickRxIBI(now)
		}
		s.fab.TickBoards(lo, hi, now)
		par.pool.Barrier()
		if id == 0 {
			s.commitCycle(now)
			par.now = now + 1
			par.stop = par.now >= par.end || s.meas.Phase() == stats.Done
			if !par.stop {
				s.beginCycle(par.now)
			}
		}
		par.pool.Barrier()
		if par.stop {
			return
		}
	}
}
