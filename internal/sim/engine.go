// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel plays the role YACSIM played in the paper's evaluation: an
// event calendar with a current virtual time. Sequential behaviours
// (the LS control protocol) are state machines whose blocking points
// are calendar callbacks; YACSIM's process and mailbox primitives have
// no counterpart (process.go is a remnant kept for the frozen
// benchmark, see there).
//
// Determinism: events scheduled for the same time fire in scheduling
// order (FIFO tie-break by sequence number), on the caller's thread —
// the engine starts no goroutines — so simulations are reproducible
// bit-for-bit from the (time, seq) order alone.
//
// The calendar is a typed min-heap of pooled event records: scheduling
// does not box through interfaces, fired and cancelled events return to
// a free list, and Cancel eagerly removes its entry so long runs with
// many cancelled wake-ups never accumulate dead calendar entries.
package sim

import (
	"fmt"
	"math"
)

// Time is virtual simulation time. The unit is defined by the model; the
// E-RAPID models use router clock cycles (2.5 ns at 400 MHz).
type Time = uint64

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxUint64

// event is a single calendar entry. Events are pooled: gen increments on
// every reuse so stale EventIDs can never cancel a recycled entry.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among equal times
	fn  func()
	idx int    // heap index, -1 when popped/cancelled
	gen uint32 // reuse generation
}

// EventID identifies a scheduled event so it can be cancelled.
type EventID struct {
	ev  *event
	gen uint32
}

// Engine is the discrete-event simulation kernel.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now      Time
	seq      uint64
	events   []*event // min-heap ordered by (at, seq)
	free     []*event // recycled event records
	executed uint64
	stopped  bool

	// procs tracks live processes for Shutdown (process.go).
	procs map[*Process]struct{}
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the total number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// less orders the heap by (at, seq).
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores the heap property upward from index i.
func (e *Engine) siftUp(i int) {
	h := e.events
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !less(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = i
		i = parent
	}
	h[i] = ev
	ev.idx = i
}

// siftDown restores the heap property downward from index i.
func (e *Engine) siftDown(i int) {
	h := e.events
	n := len(h)
	ev := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && less(h[r], h[child]) {
			child = r
		}
		if !less(h[child], ev) {
			break
		}
		h[i] = h[child]
		h[i].idx = i
		i = child
	}
	h[i] = ev
	ev.idx = i
}

// remove detaches the event at heap index i and recycles it.
func (e *Engine) remove(i int) {
	h := e.events
	n := len(h) - 1
	ev := h[i]
	if i != n {
		h[i] = h[n]
		h[i].idx = i
	}
	h[n] = nil
	e.events = h[:n]
	if i != n {
		if i > 0 && less(e.events[i], e.events[(i-1)/2]) {
			e.siftUp(i)
		} else {
			e.siftDown(i)
		}
	}
	e.recycle(ev)
}

// recycle returns an event record to the free list.
func (e *Engine) recycle(ev *event) {
	ev.idx = -1
	ev.gen++
	ev.fn = nil
	e.free = append(e.free, ev)
}

// At schedules fn at absolute time t. Scheduling in the past panics: it is
// always a model bug and silently reordering events would corrupt results.
func (e *Engine) At(t Time, fn func()) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at t=%d before now=%d", t, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	ev.idx = len(e.events)
	e.events = append(e.events, ev)
	e.siftUp(ev.idx)
	return EventID{ev: ev, gen: ev.gen}
}

// After schedules fn delay time units from now. delay may be zero; the
// event then runs later in the current instant, after all events already
// scheduled for this instant.
func (e *Engine) After(delay Time, fn func()) EventID {
	return e.At(e.now+delay, fn)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was
// actually cancelled. The calendar entry is removed (and its record
// recycled) immediately, so cancelled wake-ups cost nothing later.
func (e *Engine) Cancel(id EventID) bool {
	ev := id.ev
	if ev == nil || ev.gen != id.gen || ev.idx < 0 {
		return false
	}
	e.remove(ev.idx)
	return true
}

// popRun detaches the heap root, advances the clock and runs its fn.
func (e *Engine) popRun() {
	h := e.events
	ev := h[0]
	n := len(h) - 1
	if n > 0 {
		h[0] = h[n]
		h[0].idx = 0
	}
	h[n] = nil
	e.events = h[:n]
	if n > 1 {
		e.siftDown(0)
	}
	if ev.at < e.now {
		panic("sim: event time ran backwards")
	}
	e.now = ev.at
	e.executed++
	fn := ev.fn
	e.recycle(ev)
	fn()
}

// Step executes the single next event. It reports false when the calendar
// is empty or the engine has been stopped.
func (e *Engine) Step() bool {
	if len(e.events) == 0 || e.stopped {
		return false
	}
	e.popRun()
	return true
}

// Run executes events until the calendar is empty or the engine is
// stopped. It returns the final virtual time.
func (e *Engine) Run() Time {
	for len(e.events) > 0 && !e.stopped {
		e.popRun()
	}
	return e.now
}

// RunUntil executes events with time ≤ limit, then advances the clock to
// limit (even if no event fired exactly there). Events scheduled exactly
// at limit do fire.
func (e *Engine) RunUntil(limit Time) Time {
	for !e.stopped && len(e.events) > 0 && e.events[0].at <= limit {
		e.popRun()
	}
	if e.now < limit {
		e.now = limit
	}
	return e.now
}

// NextEventTime returns the time of the next pending event and true, or
// (0, false) when the calendar is empty.
func (e *Engine) NextEventTime() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// Stop halts Run/RunUntil after the current event completes. Further
// Step calls return false. Stop is how measurement drivers end open-ended
// simulations (e.g. "run until all labelled packets drain").
func (e *Engine) Stop() { e.stopped = true }

// Reset returns the engine to its initial state — time zero, empty
// calendar, sequence zero, not stopped — so a completed simulation's
// engine can host a fresh run without reconstruction. Pending calendar
// entries are recycled onto the free list, so the reset engine
// schedules without allocating.
func (e *Engine) Reset() {
	for i, ev := range e.events {
		e.events[i] = nil
		e.recycle(ev)
	}
	e.events = e.events[:0]
	e.now = 0
	e.seq = 0
	e.executed = 0
	e.stopped = false
}
