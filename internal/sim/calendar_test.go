package sim

import "testing"

// popAll drains every entry due at or before now.
func popAll(c *Calendar[int], now Time) (ats []Time, vs []int) {
	for {
		at, v, ok := c.PopDue(now)
		if !ok {
			return ats, vs
		}
		ats = append(ats, at)
		vs = append(vs, v)
	}
}

func TestCalendarFIFOAmongEqualTimesAcrossPops(t *testing.T) {
	var c Calendar[int]
	c.Push(5, 0)
	c.Push(3, 1)
	c.Push(5, 2)
	if at, v, ok := c.PopDue(5); !ok || at != 3 || v != 1 {
		t.Fatalf("PopDue = (%d, %d, %v), want (3, 1, true)", at, v, ok)
	}
	// Pushed after a pop, yet still behind the entries already at 5.
	c.Push(5, 3)
	c.Push(4, 4)
	c.Push(5, 5)
	ats, vs := popAll(&c, 5)
	wantAt := []Time{4, 5, 5, 5, 5}
	wantV := []int{4, 0, 2, 3, 5}
	for i := range wantV {
		if i >= len(vs) || ats[i] != wantAt[i] || vs[i] != wantV[i] {
			t.Fatalf("popped (at %v, v %v), want (at %v, v %v)", ats, vs, wantAt, wantV)
		}
	}
	if len(vs) != len(wantV) || c.Len() != 0 {
		t.Fatalf("popped %d entries leaving %d, want %d leaving 0", len(vs), c.Len(), len(wantV))
	}
}

func TestCalendarKeepsFutureEntries(t *testing.T) {
	var c Calendar[int]
	for i, at := range []Time{100, 7, 1 << 40, 8} {
		c.Push(at, i)
	}
	if _, vs := popAll(&c, 8); len(vs) != 2 || vs[0] != 1 || vs[1] != 3 {
		t.Fatalf("PopDue(8) drained %v, want [1 3]", vs)
	}
	if at, ok := c.Next(); !ok || at != 100 {
		t.Fatalf("Next = (%d, %v), want (100, true)", at, ok)
	}
	if _, _, ok := c.PopDue(99); ok {
		t.Fatal("PopDue(99) popped an entry due at 100")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	popAll(&c, MaxTime)
	if _, ok := c.Next(); ok {
		t.Fatal("Next reports an entry on an empty calendar")
	}
}

func TestCalendarSteadyStateNoAllocs(t *testing.T) {
	var c Calendar[*int]
	x := new(int)
	for i := 0; i < 32; i++ {
		c.Push(Time(i), x)
	}
	now := Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		c.PopDue(now)
		c.Push(now+32, x)
		now++
	})
	if allocs != 0 {
		t.Fatalf("steady push/pop allocates %.1f per op, want 0", allocs)
	}
}
