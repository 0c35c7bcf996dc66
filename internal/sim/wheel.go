package sim

// ActiveSet is an ordered set of small integers (port, source or
// transmitter indices): one bit per member, kept current at the points
// that change membership and walked in ascending order — copy a word,
// then repeatedly take bits.TrailingZeros64 and clear the lowest bit —
// which visits members in exactly the order an exhaustive index scan
// that tests the membership predicate would.
type ActiveSet []uint64

// NewActiveSet returns an empty set over indices [0, n).
func NewActiveSet(n int) ActiveSet { return make(ActiveSet, (n+63)>>6) }

func (s ActiveSet) Add(i int)      { s[i>>6] |= 1 << (i & 63) }
func (s ActiveSet) Remove(i int)   { s[i>>6] &^= 1 << (i & 63) }
func (s ActiveSet) Has(i int) bool { return s[i>>6]>>(i&63)&1 != 0 }

// Empty reports whether the set has no members.
func (s ActiveSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

const wheelSlots = 16 // a Wheel's lap, above Table 1's 4- to 5-cycle flit spacing

// Wheel is a hashed timing wheel that raises ActiveSet members at a given
// time, so a component waiting on the clock sleeps instead of polling.
// Each entry carries its time: one a lap or more ahead stays in its slot.
// Slots are lists threaded through one pool, which grows only with the
// number of entries live at once. The zero Wheel is empty.
type Wheel struct {
	head [wheelSlots]int32 // per slot: first entry, 1-based (0 = none)
	free int32             // first free entry, 1-based
	n    int               // live entries
	pool []wheelEntry
}

type wheelEntry struct {
	at      Time
	i, next int32 // member; next entry in the slot or free list
}

// Arm schedules member i to rise at time at, which must be no earlier
// than the next time turned.
func (w *Wheel) Arm(i int, at Time) {
	if w.free == 0 {
		w.pool = append(w.pool, wheelEntry{})
		w.free = int32(len(w.pool))
	}
	e, s := w.free, &w.head[at%wheelSlots]
	w.free, w.pool[e-1], *s = w.pool[e-1].next, wheelEntry{at: at, i: int32(i), next: *s}, e
	w.n++
}

// Turn adds to set the members due at now and frees their entries; with
// a non-nil at, an entry whose member's at[i] has since moved is freed
// without a raise. Call it at every time that can hold a due entry.
func (w *Wheel) Turn(now Time, set ActiveSet, at []Time) {
	for link := &w.head[now%wheelSlots]; *link != 0; {
		en := &w.pool[*link-1]
		if en.at > now {
			link = &en.next
			continue
		}
		if at == nil || at[en.i] == en.at {
			set.Add(int(en.i))
		}
		*link, en.next, w.free = en.next, w.free, *link
		w.n--
	}
}

// Len returns the number of live entries: armed and not yet turned.
func (w *Wheel) Len() int { return w.n }

// Empty reports whether no entry is live.
func (w *Wheel) Empty() bool { return w.n == 0 }

// Armed reports whether member i has an entry for time at.
func (w *Wheel) Armed(i int, at Time) bool {
	e := w.head[at%wheelSlots]
	for e != 0 && (int(w.pool[e-1].i) != i || w.pool[e-1].at != at) {
		e = w.pool[e-1].next
	}
	return e != 0
}
