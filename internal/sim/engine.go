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
// The engine's calendar is a Calendar (calendar.go) of pooled event
// records: scheduling does not box through interfaces, and fired and
// cancelled events return to a free list. Cancel is lazy: it clears the record's callback, and the
// record is recycled, without running, when its time comes.
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

// event is a pooled calendar record. gen increments on every reuse so
// stale EventIDs can never cancel a recycled entry; fn is nil once the
// event is cancelled.
type event struct {
	fn  func()
	gen uint32
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
	cal      Calendar[*event]
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

// recycle returns an event record to the free list.
func (e *Engine) recycle(ev *event) {
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
	ev.fn = fn
	e.cal.Push(t, ev)
	return EventID{ev: ev, gen: ev.gen}
}

// After schedules fn delay time units from now. delay may be zero; the
// event then runs later in the current instant, after all events already
// scheduled for this instant.
func (e *Engine) After(delay Time, fn func()) EventID {
	return e.At(e.now+delay, fn)
}

// Cancel withdraws a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was
// actually cancelled. A cancelled event never runs and, when its time
// comes, moves neither Now nor Executed.
func (e *Engine) Cancel(id EventID) bool {
	ev := id.ev
	if ev == nil || ev.gen != id.gen || ev.fn == nil {
		return false
	}
	ev.fn = nil
	return true
}

// runDue pops the earliest event due at or before limit and runs it,
// recycling cancelled records on the way. It reports false when no live
// event is due.
func (e *Engine) runDue(limit Time) bool {
	for {
		at, ev, ok := e.cal.PopDue(limit)
		if !ok {
			return false
		}
		fn := ev.fn
		e.recycle(ev)
		if fn == nil {
			continue
		}
		e.now = at
		e.executed++
		fn()
		return true
	}
}

// Step executes the single next event. It reports false when the calendar
// holds no live event or the engine has been stopped.
func (e *Engine) Step() bool {
	return !e.stopped && e.runDue(MaxTime)
}

// Run executes events until the calendar is empty or the engine is
// stopped. It returns the final virtual time.
func (e *Engine) Run() Time {
	for !e.stopped && e.runDue(MaxTime) {
	}
	return e.now
}

// RunUntil executes events with time ≤ limit, then advances the clock to
// limit (even if no event fired exactly there). Events scheduled exactly
// at limit do fire.
func (e *Engine) RunUntil(limit Time) Time {
	for !e.stopped && e.runDue(limit) {
	}
	if e.now < limit {
		e.now = limit
	}
	return e.now
}

// Stop halts Run/RunUntil after the current event completes. Further
// Step calls return false. Stop is how measurement drivers end open-ended
// simulations (e.g. "run until all labelled packets drain").
func (e *Engine) Stop() { e.stopped = true }
