package sim

import (
	"math/bits"
	"slices"
	"testing"
)

// members returns the set's members by its ascending word walk.
func members(s ActiveSet) []int {
	var out []int
	for wi, word := range s {
		for ; word != 0; word &= word - 1 {
			out = append(out, wi<<6|bits.TrailingZeros64(word))
		}
	}
	return out
}

func TestWheelKeepsEntriesALapAhead(t *testing.T) {
	var w Wheel
	set := NewActiveSet(4)
	// Members 0, 1 and 2 share slot 3: one due now, one a lap ahead and
	// one two laps ahead.
	w.Arm(0, 3)
	w.Arm(1, 3+wheelSlots)
	w.Arm(2, 3+2*wheelSlots)
	live := 3
	for now := Time(0); now <= 3+2*wheelSlots; now++ {
		w.Turn(now, set, nil)
		want := []int(nil)
		switch now {
		case 3:
			want = []int{0}
		case 3 + wheelSlots:
			want = []int{1}
		case 3 + 2*wheelSlots:
			want = []int{2}
		}
		if got := members(set); !slices.Equal(got, want) {
			t.Fatalf("Turn(%d) raised %v, want %v", now, got, want)
		}
		clear(set)
		if want != nil {
			live--
		}
		if w.Len() != live {
			t.Fatalf("after Turn(%d): Len %d, want %d", now, w.Len(), live)
		}
	}
	if !w.Empty() {
		t.Fatalf("Len %d after every entry rose", w.Len())
	}
}

func TestWheelFreesMovedEntries(t *testing.T) {
	var w Wheel
	set := NewActiveSet(2)
	at := []Time{5, 5}
	w.Arm(0, 5)
	w.Arm(1, 5)
	at[1] = 9 // member 1 was rescheduled: its entry for 5 is stale
	w.Arm(1, 9)
	if w.Len() != 3 {
		t.Fatalf("Len %d, want 3", w.Len())
	}
	w.Turn(5, set, at)
	if got := members(set); !slices.Equal(got, []int{0}) {
		t.Fatalf("Turn(5) raised %v, want [0]", got)
	}
	if w.Len() != 1 || !w.Armed(1, 9) || w.Armed(1, 5) {
		t.Fatalf("after Turn(5): Len %d, armed(1, 9) %v, armed(1, 5) %v; want 1, true, false", w.Len(), w.Armed(1, 9), w.Armed(1, 5))
	}
}

func TestWheelSteadyStateAllocatesNothing(t *testing.T) {
	var w Wheel
	set := NewActiveSet(64)
	now := Time(0)
	step := func() {
		for i := range 8 {
			w.Arm(i*8, now+1+Time(i))
		}
		for range 8 {
			now++
			w.Turn(now, set, nil)
		}
		clear(set)
	}
	step() // grow the pool to its working size
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("Arm/Turn allocate %v times per round, want 0", n)
	}
}

func TestActiveSetAscendingAcrossWords(t *testing.T) {
	s := NewActiveSet(200)
	if len(s) != 4 || !s.Empty() {
		t.Fatalf("NewActiveSet(200): %d words, empty %v", len(s), s.Empty())
	}
	in := []int{199, 64, 0, 127, 63, 128, 65}
	for _, i := range in {
		s.Add(i)
	}
	s.Remove(65)
	want := []int{0, 63, 64, 127, 128, 199}
	if got := members(s); !slices.Equal(got, want) {
		t.Fatalf("walk %v, want %v", got, want)
	}
	for _, i := range want {
		if !s.Has(i) {
			t.Fatalf("Has(%d) false", i)
		}
	}
	if s.Has(65) || s.Empty() {
		t.Fatalf("Has(65) %v, Empty %v", s.Has(65), s.Empty())
	}
}
