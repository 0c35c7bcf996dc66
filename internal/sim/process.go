package sim

import (
	"fmt"
	"runtime"
)

// Process is a YACSIM-style simulation process: a goroutine that may
// block on virtual time (Delay) or on Signals, while the engine runs at
// most one goroutine at a time.
//
// The engine and the process goroutine exchange control through an
// explicit two-channel handshake: the engine never advances while a
// process is runnable, and a process never runs while the engine is
// dispatching events. This keeps multi-process models deterministic.
type Process struct {
	eng      *Engine
	name     string
	wake     chan struct{}
	parked   chan struct{}
	finished bool
	started  bool
	// resumeFn is the resume method bound once at spawn time; scheduling
	// it instead of p.resume keeps Delay/Fire/Release from allocating a
	// fresh method value on every call.
	resumeFn func()
}

// SpawnProcess creates a process and schedules its first activation at
// the current time (after events already scheduled for this instant).
func (e *Engine) SpawnProcess(name string, body func(p *Process)) *Process {
	p := &Process{
		eng:    e,
		name:   name,
		wake:   make(chan struct{}),
		parked: make(chan struct{}),
	}
	p.resumeFn = p.resume
	e.procs[p] = struct{}{}
	go func() {
		if _, ok := <-p.wake; !ok { // wait for first activation
			return // engine shut down before the process ever ran
		}
		body(p)
		p.finished = true
		delete(e.procs, p)
		p.parked <- struct{}{}
	}()
	e.After(0, p.resumeFn)
	return p
}

// LiveProcesses returns the number of spawned processes that have not yet
// returned. Useful for leak checks in tests.
func (e *Engine) LiveProcesses() int { return len(e.procs) }

// Name returns the process name given at spawn time.
func (p *Process) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Process) Now() Time { return p.eng.Now() }

// resume transfers control to the process goroutine and blocks until it
// parks again or finishes. It runs in engine (event) context.
func (p *Process) resume() {
	if p.finished {
		panic(fmt.Sprintf("sim: resuming finished process %q", p.name))
	}
	p.started = true
	p.wake <- struct{}{}
	<-p.parked
}

// park blocks the process goroutine and returns control to the engine.
// It runs in process context. A closed wake channel (engine Shutdown)
// terminates the goroutine.
func (p *Process) park() {
	p.parked <- struct{}{}
	if _, ok := <-p.wake; !ok {
		runtime.Goexit()
	}
}

// Delay blocks the process for d time units of virtual time. A zero
// delay yields: other events at the current instant run first.
func (p *Process) Delay(d Time) {
	p.eng.After(d, p.resumeFn)
	p.park()
}

// WaitSignal blocks until the signal fires. If the signal fires multiple
// times while the process is not waiting, wake-ups do not accumulate
// (condition-variable semantics): callers must re-check their predicate.
func (p *Process) WaitSignal(s *Signal) {
	s.enqueue(p)
	p.park()
}

// WaitSignalUntil blocks until the signal fires or virtual time reaches
// deadline, whichever comes first, and reports whether the wait timed
// out. A deadline at or before the current time returns true without
// blocking. Like WaitSignal, a wake-up does not guarantee the caller's
// predicate: re-check and wait again with the same absolute deadline.
func (p *Process) WaitSignalUntil(s *Signal, deadline Time) (timedOut bool) {
	if deadline <= p.eng.Now() {
		return true
	}
	w := &timedWaiter{p: p}
	s.timed = append(s.timed, w)
	timer := p.eng.At(deadline, func() {
		if w.woken {
			return // the signal fired at this same instant and won
		}
		w.woken = true
		w.timedOut = true
		// Remove the waiter so a later Fire cannot resume the process a
		// second time.
		for i, tw := range s.timed {
			if tw == w {
				copy(s.timed[i:], s.timed[i+1:])
				s.timed[len(s.timed)-1] = nil
				s.timed = s.timed[:len(s.timed)-1]
				break
			}
		}
		p.resume()
	})
	p.park()
	if !w.timedOut {
		// The signal won; the timer entry is still on the calendar.
		p.eng.Cancel(timer)
	}
	return w.timedOut
}

// timedWaiter is one process blocked in WaitSignalUntil. The woken flag
// arbitrates the race between Fire and the deadline timer when both
// land on the same instant: whichever runs first claims the wake-up.
type timedWaiter struct {
	p        *Process
	woken    bool
	timedOut bool
}

// Signal is a named wake-up source for processes (condition-variable
// style). Fire wakes all currently waiting processes, in wait order, at
// the current instant.
type Signal struct {
	eng     *Engine
	name    string
	waiters []*Process
	timed   []*timedWaiter
	fires   uint64
}

// NewSignal creates a signal bound to an engine.
func NewSignal(eng *Engine, name string) *Signal {
	return &Signal{eng: eng, name: name}
}

// Name returns the signal's name.
func (s *Signal) Name() string { return s.name }

// Fires returns how many times the signal has fired.
func (s *Signal) Fires() uint64 { return s.fires }

// Waiting returns the number of processes currently blocked on the signal.
func (s *Signal) Waiting() int { return len(s.waiters) + len(s.timed) }

func (s *Signal) enqueue(p *Process) { s.waiters = append(s.waiters, p) }

// Fire wakes every process currently waiting on the signal. Wake-ups are
// scheduled as zero-delay events in wait order (plain waiters first,
// then deadline-bounded ones), so woken processes run at the current
// instant but after the firing context returns to the engine.
func (s *Signal) Fire() {
	s.fires++
	// After only schedules (nothing resumes inside these loops), so the
	// backing arrays can be drained in place and kept for reuse — a
	// signal that cycles between one waiter and none would otherwise
	// allocate on every re-enqueue.
	for _, p := range s.waiters {
		s.eng.After(0, p.resumeFn)
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
	for _, w := range s.timed {
		// Claim the wake-up now so a deadline timer at this same instant
		// sees a settled race; the resume itself is still deferred.
		w.woken = true
		s.eng.After(0, w.p.resumeFn)
	}
	clear(s.timed)
	s.timed = s.timed[:0]
}
