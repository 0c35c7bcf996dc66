package sim

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
)

// TestPoolReuseAcrossRuns dispatches many epochs through one pool: the
// helpers persist across calls and run every body they are handed.
func TestPoolReuseAcrossRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var total atomic.Int64
	for round := 0; round < 100; round++ {
		p.Epoch(func(id int) { total.Add(int64(id)) })
	}
	if want := int64(100 * (0 + 1 + 2 + 3)); total.Load() != want {
		t.Fatalf("total = %d, want %d", total.Load(), want)
	}
}

func TestPoolNilAndClosed(t *testing.T) {
	var nilPool *Pool
	if got := nilPool.Workers(); got != 1 {
		t.Errorf("nil pool Workers() = %d, want 1", got)
	}
	nilPool.Close() // must not panic

	p := NewPool(4)
	p.Close()
	p.Close() // idempotent
	if got := p.Workers(); got != 1 {
		t.Errorf("closed pool Workers() = %d, want 1", got)
	}
}

func TestPoolWidthClamped(t *testing.T) {
	if got := NewPool(0).Workers(); got != 1 {
		t.Errorf("NewPool(0).Workers() = %d, want 1", got)
	}
	if got := NewPool(-3).Workers(); got != 1 {
		t.Errorf("NewPool(-3).Workers() = %d, want 1", got)
	}
}

func TestPoolEpochCoversEveryMemberExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 8} {
		p := NewPool(workers)
		visits := make([]int32, workers)
		p.Epoch(func(id int) { atomic.AddInt32(&visits[id], 1) })
		for id, v := range visits {
			if v != 1 {
				t.Errorf("workers=%d: member %d ran %d times", workers, id, v)
			}
		}
		p.Close()
	}
}

// TestPoolBarrierPhases drives many barrier-separated phases through one
// epoch and checks the barrier really is a full-width rendezvous: no
// member may enter phase k+1 while another is still in phase k.
func TestPoolBarrierPhases(t *testing.T) {
	const phases = 200
	for _, workers := range []int{2, 3, 4, 8} {
		p := NewPool(workers)
		var inPhase atomic.Int64 // sum of every member's current phase
		p.Epoch(func(id int) {
			for ph := 0; ph < phases; ph++ {
				inPhase.Add(1)
				p.Barrier()
				// Between the two barriers every member must agree on the
				// phase: the sum is exactly workers*(ph+1).
				if got, want := inPhase.Load(), int64(workers)*int64(ph+1); got != want {
					t.Errorf("workers=%d phase %d: progress sum %d, want %d", workers, ph, got, want)
				}
				p.Barrier()
			}
		})
		p.Close()
	}
}

// TestPoolEpochSerialSections checks the epoch idiom the core engine
// relies on: plain (non-atomic) fields written by member 0 between
// barriers are visible to every member after the next barrier.
func TestPoolEpochSerialSections(t *testing.T) {
	const rounds = 100
	p := NewPool(4)
	defer p.Close()
	var shared int // written only by member 0 between barriers
	errs := make([]int32, p.Workers())
	p.Epoch(func(id int) {
		for r := 1; r <= rounds; r++ {
			if id == 0 {
				shared = r
			}
			p.Barrier()
			if shared != r {
				atomic.AddInt32(&errs[id], 1)
			}
			p.Barrier()
		}
	})
	for id, e := range errs {
		if e != 0 {
			t.Errorf("member %d saw %d stale serial-section values", id, e)
		}
	}
}

func TestPoolEpochNilAndClosed(t *testing.T) {
	var nilPool *Pool
	ran := 0
	nilPool.Epoch(func(id int) {
		ran++
		nilPool.Barrier() // must be a no-op, not a deadlock
	})
	if ran != 1 {
		t.Errorf("nil pool epoch ran %d times, want 1", ran)
	}

	p := NewPool(4)
	p.Close()
	ran = 0
	p.Epoch(func(id int) {
		ran++
		p.Barrier()
	})
	if ran != 1 {
		t.Errorf("closed pool epoch ran %d times, want 1", ran)
	}
}

// TestPoolWorkerLabels checks that every helper goroutine carries the
// pprof label worker=<id>, which is what lets a CPU profile split the
// engine's phases by member.
func TestPoolWorkerLabels(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	p.Epoch(func(int) {}) // every helper has started and set its label
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`# labels: {"worker":"1"}`, `# labels: {"worker":"2"}`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("goroutine profile lacks %s:\n%s", want, buf.String())
		}
	}
}
