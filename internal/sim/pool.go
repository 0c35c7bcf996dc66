package sim

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// Pool is a fixed crew of worker goroutines for board-sharded cycle
// stepping: every core System steps its cycle loop through one, of
// width 1 (no goroutines, Barrier a no-op) unless it has several
// shards. Epoch hands every member a long-lived body that covers many
// cycles, with Barrier as the in-epoch phase separator, so the channel
// park/wake cost is paid once per epoch instead of once per phase.
//
// The calling goroutine is member 0 and works alongside the helpers,
// so a pool of W workers spawns W-1 goroutines. The goroutines persist
// across calls (no per-call goroutine churn). Each helper carries the
// pprof label worker=<id>, so a CPU profile splits the work by member
// (go tool pprof -tagfocus 'worker=^1$'); member 0 keeps the caller's
// labels.
//
// Determinism contract: Epoch says nothing about the order members
// execute in, only that every member id is covered exactly once and
// that all work happens-before the call returns. Callers that need
// deterministic output must make members write disjoint state (plus
// per-shard outboxes drained later in a canonical order), which is
// exactly how the core cycle loop uses it. A closed pool runs only
// member 0, so a caller that shards its work by member id must first
// fold every shard into member 0's.
type Pool struct {
	workers int
	tasks   []chan func(id int)
	wg      sync.WaitGroup

	// Sense-reversing barrier state for Epoch phases. arrived counts
	// members at the current rendezvous; gen flips when the last one
	// arrives. Both are only touched inside an epoch. mu/cond back the
	// parked slow path (see Barrier); sleepers counts members parked on
	// cond so the fast path can skip the broadcast entirely.
	arrived  atomic.Int32
	gen      atomic.Uint32
	sleepers atomic.Int32
	mu       sync.Mutex
	cond     sync.Cond

	// spins is the barrier's poll budget before it starts yielding,
	// fixed at construction: barrierSpins with real parallelism, 0 on a
	// single-P runtime where polling can never observe progress.
	spins int
}

// NewPool creates a pool of the given total width (including the calling
// goroutine). Widths below 1 are treated as 1; a width-1 pool runs
// everything inline and spawns nothing.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, tasks: make([]chan func(id int), workers-1)}
	p.cond.L = &p.mu
	if runtime.GOMAXPROCS(0) > 1 {
		p.spins = barrierSpins
	}
	for i := range p.tasks {
		ch := make(chan func(id int), 1)
		p.tasks[i] = ch
		go p.work(i+1, ch)
	}
	return p
}

// work is helper id's loop: it runs each epoch body it is handed, under
// the label worker=<id> for its whole life.
func (p *Pool) work(id int, ch chan func(id int)) {
	labels := pprof.Labels("worker", strconv.Itoa(id))
	pprof.Do(context.Background(), labels, func(context.Context) {
		for body := range ch {
			body(id)
			p.wg.Done()
		}
	})
}

// Workers returns the pool's total width (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Epoch runs body(id) concurrently on every pool member — the calling
// goroutine as id 0 plus the helpers as ids 1..Workers-1 — and returns
// once every body has returned. The bodies coordinate internally with
// Barrier; the channel handoff (and its park/wake) is paid exactly once
// per Epoch, no matter how many barrier-separated phases the bodies
// step through. A nil, width-1 or closed pool calls body(0) inline.
//
// Every member must execute the same number of Barrier calls; a body
// that returns early while others still barrier deadlocks the epoch.
func (p *Pool) Epoch(body func(id int)) {
	if p == nil || len(p.tasks) == 0 {
		body(0)
		return
	}
	p.wg.Add(len(p.tasks))
	for _, ch := range p.tasks {
		ch <- body
	}
	body(0)
	p.wg.Wait()
}

// barrierSpins is how many times a waiter polls the generation before
// yielding its P between polls; barrierYields bounds the yield phase
// before the waiter parks outright. Compute phases are short (tens of
// microseconds), so on a machine with a core per worker the spin phase
// almost always wins and nobody parks. The park fallback matters when
// the pool is wider than the machine (or the race detector serializes
// the atomics): spinning waiters would then only burn scheduler quanta
// the straggler needs.
const (
	barrierSpins  = 128
	barrierYields = 64
)

// Barrier blocks until every pool member has called it (a full-width
// rendezvous), establishing happens-before between all work preceding
// the barrier and all work following it. It is valid only inside an
// Epoch body and must be reached by every member the same number of
// times. A nil or width-1 pool returns immediately.
//
// The rendezvous is a sense-reversing barrier on two atomics: the last
// arriver resets the count and flips the generation; everyone else
// spins, then yields, then — only if the flip still hasn't landed —
// parks on the condvar. In the steady state no goroutine parks, which
// is the point: parking and waking through channels is what made
// per-phase dispatch cost more than the compute it coordinated.
func (p *Pool) Barrier() {
	if p == nil || p.workers <= 1 {
		return
	}
	gen := p.gen.Load()
	if int(p.arrived.Add(1)) == p.workers {
		p.arrived.Store(0)
		// The generation flip is published under mu so a parking waiter
		// cannot recheck-then-sleep between the flip and the broadcast
		// (the classic lost wakeup); the broadcast itself is skipped when
		// nobody parked, keeping the fast path lock+unlock only.
		p.mu.Lock()
		p.gen.Add(1)
		sleepers := p.sleepers.Load()
		p.mu.Unlock()
		if sleepers > 0 {
			p.cond.Broadcast()
		}
		return
	}
	for i := 0; i < p.spins; i++ {
		if p.gen.Load() != gen {
			return
		}
	}
	for i := 0; i < barrierYields; i++ {
		runtime.Gosched()
		if p.gen.Load() != gen {
			return
		}
	}
	p.mu.Lock()
	p.sleepers.Add(1)
	for p.gen.Load() == gen {
		p.cond.Wait()
	}
	p.sleepers.Add(-1)
	p.mu.Unlock()
}

// Close releases the pool's helper goroutines. A closed pool still
// accepts Epoch calls but executes them inline (and Barrier
// becomes a no-op). Close is idempotent.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	for _, ch := range p.tasks {
		close(ch)
	}
	p.tasks = nil
	p.workers = 1
}
