package service

import (
	"context"
	"sync"

	"repro/internal/telemetry"
)

// eventLog is a bounded, seekable telemetry event log shared between
// one running job (the writer, on the simulation hot path) and any
// number of HTTP streaming subscribers (readers).
//
// The writer appends under a mutex into a ring of capacity events and
// never blocks on readers: a subscriber that falls more than capacity
// events behind skips ahead and is told how many events it missed, so
// a slow or stalled client can never wedge or slow a simulation beyond
// the cost of the mutex. Readers block on a condition variable until
// new events arrive, the log closes or their context ends.
//
// The ring's storage is allocated in chunks as writes first reach
// them, so a job holds memory for the events it emitted, not for
// capacity; once the ring wraps, the chunks are reused.
type eventLog struct {
	mu       sync.Mutex
	cond     *sync.Cond
	chunks   [][]telemetry.Event // eventChunk slots each; the last may be shorter
	capacity uint64
	seq      uint64 // total events ever appended
	closed   bool
}

// eventChunk is the number of ring slots allocated at a time (80 KB).
const eventChunk = 1024

// newEventLog creates a log retaining the last capacity events.
func newEventLog(capacity int) *eventLog {
	l := &eventLog{capacity: uint64(capacity)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// slot returns the ring slot of sequence number s.
func (l *eventLog) slot(s uint64) *telemetry.Event {
	i := s % l.capacity
	return &l.chunks[i/eventChunk][i%eventChunk]
}

// Emit implements telemetry.Sink.
func (l *eventLog) Emit(ev telemetry.Event) {
	l.mu.Lock()
	if i := l.seq % l.capacity; i/eventChunk == uint64(len(l.chunks)) {
		l.chunks = append(l.chunks, make([]telemetry.Event, min(eventChunk, l.capacity-i)))
	}
	*l.slot(l.seq) = ev
	l.seq++
	l.mu.Unlock()
	l.cond.Broadcast()
}

// close marks the log complete (the job finished) and wakes readers.
func (l *eventLog) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// wake pulses waiting readers so they re-check their contexts (a
// disconnected HTTP client). It broadcasts under l.mu: a reader checks
// its context and parks in cond.Wait under the same lock, so the pulse
// lands either before the check (which then sees the ended context) or
// after the reader parked (and wakes it), never in between.
func (l *eventLog) wake() {
	l.mu.Lock()
	l.cond.Broadcast()
	l.mu.Unlock()
}

// next copies the events from sequence number from onward into buf,
// blocking while the log is open, has nothing new and ctx has not
// ended. It returns the batch, the sequence to resume from, the number
// of events skipped because the reader fell behind the ring, and
// whether the log is closed (a closed log with an empty batch means the
// stream is done). ctx is checked before every wait, so a reader whose
// context has ended gets an empty batch at once; whoever cancels ctx
// must call wake afterwards to release a reader already waiting.
func (l *eventLog) next(ctx context.Context, from uint64, buf []telemetry.Event) (batch []telemetry.Event, resume uint64, skipped uint64, closed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.seq == from && !l.closed {
		if ctx.Err() != nil {
			return buf[:0], from, 0, false
		}
		l.cond.Wait()
	}
	start := from
	if window := l.capacity; l.seq > window && start < l.seq-window {
		skipped = l.seq - window - start
		start = l.seq - window
	}
	n := l.seq - start
	if max := uint64(cap(buf)); n > max {
		n = max
	}
	batch = buf[:0]
	for i := uint64(0); i < n; i++ {
		batch = append(batch, *l.slot(start + i))
	}
	return batch, start + n, skipped, l.closed
}
