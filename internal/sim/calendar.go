package sim

// Calendar is a time-ordered queue of values: entries leave in
// ascending time, and entries with equal times leave in the order they
// were pushed (FIFO tie-break by a sequence number). It is the one
// implementation of that ordering rule: the engine's event list, the
// optical fabric's in-flight deliveries and the fault injector's
// pending recoveries are all Calendars.
//
// The queue is a binary min-heap over (time, sequence). Popped slots
// are zeroed so the calendar holds no references to departed values,
// and its storage is kept across pops, so a calendar in
// steady use does not allocate.
//
// The zero value is an empty calendar ready for use.
type Calendar[T any] struct {
	h   []entry[T]
	seq uint64
}

// entry is one calendar slot.
type entry[T any] struct {
	at  Time
	seq uint64
	v   T
}

// before orders entries by (at, seq).
func (a *entry[T]) before(b *entry[T]) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Push adds v at time at, after every entry already pushed for at.
func (c *Calendar[T]) Push(at Time, v T) {
	h := append(c.h, entry[T]{})
	e := entry[T]{at: at, seq: c.seq, v: v}
	c.seq++
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	c.h = h
}

// PopDue removes and returns the earliest entry when its time is ≤ now;
// ok is false, and nothing is removed, when the calendar is empty or
// its earliest entry lies after now.
func (c *Calendar[T]) PopDue(now Time) (at Time, v T, ok bool) {
	h := c.h
	if len(h) == 0 || h[0].at > now {
		return 0, v, false
	}
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = entry[T]{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && h[r].before(&h[child]) {
				child = r
			}
			if !h[child].before(&last) {
				break
			}
			h[i] = h[child]
			i = child
		}
		h[i] = last
	}
	c.h = h
	return top.at, top.v, true
}

// Next returns the earliest entry's time; ok is false when the calendar
// is empty.
func (c *Calendar[T]) Next() (at Time, ok bool) {
	if len(c.h) == 0 {
		return 0, false
	}
	return c.h[0].at, true
}

// Len returns the number of entries.
func (c *Calendar[T]) Len() int { return len(c.h) }
