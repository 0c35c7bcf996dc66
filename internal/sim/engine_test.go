package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
	if e.cal.Len() != 0 {
		t.Fatal("fresh engine has a pending event")
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{30, 10, 20, 10, 0} {
		d := d
		e.After(d, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{0, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break violated)", i, v, i)
		}
	}
}

func TestZeroDelayRunsAfterCurrentInstantQueue(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(5, func() {
		order = append(order, "a")
		e.After(0, func() { order = append(order, "c") })
	})
	e.At(5, func() { order = append(order, "b") })
	e.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.After(10, func() { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for live event")
	}
	if e.Cancel(id) {
		t.Fatal("Cancel returned true for already-cancelled event")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine()
	id := e.After(1, func() {})
	e.Run()
	if e.Cancel(id) {
		t.Fatal("Cancel returned true for fired event")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{5, 10, 15} {
		e.After(d, func() { fired = append(fired, e.Now()) })
	}
	e.RunUntil(10)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2 (events at t<=10)", len(fired))
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %d, want 10", e.Now())
	}
	e.RunUntil(20)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %d, want 20 (clock advances to limit)", e.Now())
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count == 5 {
			e.Stop()
		}
		e.After(1, tick)
	}
	e.After(0, tick)
	e.Run()
	if count != 5 {
		t.Fatalf("executed %d ticks, want 5", count)
	}
	if e.Step() {
		t.Fatal("Step ran an event on a stopped engine")
	}
}

func TestExecutedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 17; i++ {
		e.After(Time(i), func() {})
	}
	e.Run()
	if e.Executed() != 17 {
		t.Fatalf("Executed() = %d, want 17", e.Executed())
	}
}

// Property: for any set of delays, events fire in nondecreasing time
// order and all events fire exactly once.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			e.After(Time(d), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapStressInterleavedCancel(t *testing.T) {
	e := NewEngine()
	var fired int
	var ids []EventID
	for i := 0; i < 1000; i++ {
		ids = append(ids, e.After(Time(i%50), func() { fired++ }))
	}
	for i := 0; i < 1000; i += 2 {
		e.Cancel(ids[i])
	}
	e.Run()
	if fired != 500 {
		t.Fatalf("fired = %d, want 500", fired)
	}
}

func BenchmarkEventScheduling(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%64), fn)
		e.Step()
	}
}

func TestCancelledEventMovesNeitherNowNorExecuted(t *testing.T) {
	e := NewEngine()
	ran := false
	id := e.At(10, func() { ran = true })
	e.At(5, func() {})
	e.Cancel(id)
	if end := e.Run(); ran || end != 5 || e.Executed() != 1 {
		t.Fatalf("ran %v, Run = %d, Executed = %d; want false, 5, 1", ran, end, e.Executed())
	}
	if e.cal.Len() != 0 {
		t.Fatalf("cancelled record still on the calendar (%d entries)", e.cal.Len())
	}

	e = NewEngine()
	var got []int
	id = e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	e.Cancel(id)
	if !e.Step() || len(got) != 1 || got[0] != 2 || e.Now() != 2 {
		t.Fatalf("Step ran %v at %d, want [2] at 2", got, e.Now())
	}
	if e.Step() {
		t.Fatal("Step reported an event on a drained calendar")
	}
	id = e.At(3, func() {})
	e.Cancel(id)
	if e.Step() || e.Now() != 2 || e.Executed() != 1 {
		t.Fatalf("Step over only a cancelled event: Now %d, Executed %d; want 2, 1", e.Now(), e.Executed())
	}
}

func TestStaleEventIDCancelsNothing(t *testing.T) {
	e := NewEngine()
	stale := e.After(1, func() {})
	e.Run()
	fired := false
	fresh := e.After(1, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Fatal("the fired record was not reused")
	}
	if e.Cancel(stale) {
		t.Fatal("Cancel of a stale EventID reported success")
	}
	e.Run()
	if !fired {
		t.Fatal("a stale EventID cancelled the recycled record's event")
	}

	// A cancelled record comes back through the free list too.
	gone := e.After(1, func() {})
	e.Cancel(gone)
	e.Run()
	fired = false
	e.After(1, func() { fired = true })
	if e.Cancel(gone) {
		t.Fatal("Cancel of a recycled cancelled EventID reported success")
	}
	e.Run()
	if !fired {
		t.Fatal("a recycled record's event did not run")
	}
}
