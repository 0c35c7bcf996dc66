package sim

import "runtime"

// Process is a goroutine that blocks on virtual time while the engine
// runs at most one goroutine at a time, through a two-channel
// handshake. Nothing in the simulator uses it any more — the LS
// protocol is plain engine callbacks (internal/ctrl) — and this file
// keeps only what the frozen benchmark/ harness compiles against:
// SpawnProcess, Delay and Shutdown, for its sim.process_switch_ns
// series. ROADMAP item 1c moves the harness off them; then the file
// goes.
type Process struct {
	eng      *Engine
	wake     chan struct{}
	parked   chan struct{}
	resumeFn func() // p.resume, bound once so Delay does not allocate
}

// SpawnProcess creates a process and schedules its first activation at
// the current time (after events already scheduled for this instant).
// The name is unused.
func (e *Engine) SpawnProcess(_ string, body func(p *Process)) *Process {
	p := &Process{eng: e, wake: make(chan struct{}), parked: make(chan struct{})}
	p.resumeFn = p.resume
	if e.procs == nil {
		e.procs = make(map[*Process]struct{})
	}
	e.procs[p] = struct{}{}
	go func() {
		if _, ok := <-p.wake; !ok { // wait for first activation
			return // engine shut down before the process ever ran
		}
		body(p)
		delete(e.procs, p)
		p.parked <- struct{}{}
	}()
	e.After(0, p.resumeFn)
	return p
}

// resume (engine context) hands control to the process goroutine and
// blocks until it parks again or finishes.
func (p *Process) resume() {
	p.wake <- struct{}{}
	<-p.parked
}

// Delay blocks the process for d time units of virtual time. A zero
// delay yields: other events at the current instant run first. A closed
// wake channel (Shutdown) terminates the goroutine.
func (p *Process) Delay(d Time) {
	p.eng.After(d, p.resumeFn)
	p.parked <- struct{}{}
	if _, ok := <-p.wake; !ok {
		runtime.Goexit()
	}
}

// Shutdown stops the engine and terminates every live process
// goroutine. The engine must be idle (no process executing) and must
// not be stepped again.
func (e *Engine) Shutdown() {
	e.stopped = true
	for p := range e.procs {
		close(p.wake)
		delete(e.procs, p)
	}
}
