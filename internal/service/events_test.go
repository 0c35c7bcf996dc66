package service

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// eagerRing is the reference model of eventLog: a ring allocated at
// full capacity up front, read with the same skip-ahead rule.
type eagerRing struct {
	ring   []telemetry.Event
	seq    uint64
	closed bool
}

func (r *eagerRing) emit(ev telemetry.Event) { r.ring[r.seq%uint64(len(r.ring))] = ev; r.seq++ }

func (r *eagerRing) next(from uint64, max int) (batch []telemetry.Event, resume, skipped uint64, closed bool) {
	if w := uint64(len(r.ring)); r.seq > w && from < r.seq-w {
		skipped, from = r.seq-w-from, r.seq-w
	}
	for ; from < r.seq && len(batch) < max; from++ {
		batch = append(batch, r.ring[from%uint64(len(r.ring))])
	}
	return batch, from, skipped, r.closed
}

// TestEventLogMatchesEagerRing: at capacities on and around the chunk
// size, after up to three laps of the ring, every reader — at the
// start, mid-window, behind the window or caught up, with batch
// buffers of 1, 7 and 4096 events — reads exactly what a ring
// allocated up front returns, step by step until it catches up, both
// while the log is open and after it closes.
func TestEventLogMatchesEagerRing(t *testing.T) {
	for _, capacity := range []int{1, 4, eventChunk - 1, eventChunk, eventChunk + 1, 3*eventChunk + 7} {
		for _, n := range []int{0, 1, capacity - 1, capacity, capacity + 1, 2*capacity + 3, 3 * capacity} {
			l, ref := newEventLog(capacity), &eagerRing{ring: make([]telemetry.Event, capacity)}
			for i := 0; i < n; i++ {
				ev := telemetry.Event{Cycle: uint64(i), Board: -1, Wavelength: -1, Dest: -1}
				l.Emit(ev)
				ref.emit(ev)
			}
			seq, window := uint64(n), uint64(min(n, capacity))
			check := func() {
				t.Helper()
				froms := []uint64{0, seq / 2, seq - window/2}
				if seq > 0 {
					froms = append(froms, seq-1)
				}
				if seq > window {
					froms = append(froms, seq-window-1)
				}
				if ref.closed {
					froms = append(froms, seq)
				}
				for _, from := range froms {
					if from == seq && !ref.closed {
						continue // an open log blocks a caught-up reader
					}
					for _, bufCap := range []int{1, 7, 4096} {
						for f := from; ; {
							got, gotResume, gotSkipped, gotClosed := l.next(context.Background(), f, make([]telemetry.Event, 0, bufCap))
							want, wantResume, wantSkipped, wantClosed := ref.next(f, bufCap)
							if !slices.Equal(got, want) || gotResume != wantResume || gotSkipped != wantSkipped || gotClosed != wantClosed {
								t.Fatalf("capacity %d, %d events, closed %v, next(%d) with cap(buf) %d = (%d events, %d, %d, %v), want (%d events, %d, %d, %v)",
									capacity, n, ref.closed, f, bufCap, len(got), gotResume, gotSkipped, gotClosed, len(want), wantResume, wantSkipped, wantClosed)
							}
							if f = gotResume; f == seq {
								break
							}
						}
					}
				}
			}
			check()
			l.close()
			ref.closed = true
			check()
		}
	}
}

// TestEventLogAllocatesOnDemand: a log sized for 65536 events that
// receives 100 allocates one chunk, not the whole ring.
func TestEventLogAllocatesOnDemand(t *testing.T) {
	limit := 2 * eventChunk * uint64(reflect.TypeOf(telemetry.Event{}).Size())
	var got uint64
	// Best of three, so that an allocation elsewhere in the process
	// during one attempt cannot fail the test.
	for attempt := 0; attempt < 3; attempt++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l := newEventLog(1 << 16)
		for i := 0; i < 100; i++ {
			l.Emit(telemetry.Event{Cycle: uint64(i)})
		}
		runtime.ReadMemStats(&after)
		if got = after.TotalAlloc - before.TotalAlloc; got < limit {
			return
		}
	}
	t.Fatalf("newEventLog(1 << 16) plus 100 Emits allocated %d B, want < %d B (two chunks)", got, limit)
}

// TestEventLogNextHonoursContext: on an open, empty log, a reader whose
// context has already ended returns an empty batch at once, and a
// reader whose context ends while it waits returns once wake pulses.
func TestEventLogNextHonoursContext(t *testing.T) {
	l := newEventLog(4)
	defer l.close() // releases a reader the checks below leave blocked
	read := func(ctx context.Context) <-chan string {
		out := make(chan string, 1)
		go func() {
			batch, resume, skipped, closed := l.next(ctx, 0, make([]telemetry.Event, 0, 4))
			if len(batch) != 0 || resume != 0 || skipped != 0 || closed {
				out <- fmt.Sprintf("next = (%d events, %d, %d, %v), want (0 events, 0, 0, false)", len(batch), resume, skipped, closed)
			}
			close(out)
		}()
		return out
	}
	wait := func(what string, out <-chan string) {
		t.Helper()
		select {
		case msg := <-out:
			if msg != "" {
				t.Fatalf("%s: %s", what, msg)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: reader still blocked on an open, empty log", what)
		}
	}

	ended, cancel := context.WithCancel(context.Background())
	cancel()
	wait("ended context", read(ended))

	live, cancel := context.WithCancel(context.Background())
	out := read(live)
	cancel()
	l.wake()
	wait("context ended while waiting", out)
}
