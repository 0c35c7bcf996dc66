package sim

// Mailbox is a FIFO message queue with blocking receive for processes
// (the YACSIM mailbox primitive). Senders never block.
type Mailbox[T any] struct {
	eng   *Engine
	name  string
	items []T
	sig   *Signal
	// free recycles in-flight PutAfter records (value + bound deliver
	// closure) so the steady-state delayed-send path allocates nothing.
	free []*mailFlight[T]
}

// mailFlight is one delayed message in flight: the value plus a deliver
// closure built once and rescheduled on every reuse.
type mailFlight[T any] struct {
	v  T
	fn func()
}

// NewMailbox creates an empty mailbox.
func NewMailbox[T any](eng *Engine, name string) *Mailbox[T] {
	return &Mailbox[T]{eng: eng, name: name, sig: NewSignal(eng, name+".sig")}
}

// Name returns the mailbox name.
func (m *Mailbox[T]) Name() string { return m.name }

// Len returns the number of queued messages.
func (m *Mailbox[T]) Len() int { return len(m.items) }

// Put enqueues a message and wakes any waiting receivers.
func (m *Mailbox[T]) Put(v T) {
	m.items = append(m.items, v)
	m.sig.Fire()
}

// PutAfter enqueues a message after a delay (a message in flight).
func (m *Mailbox[T]) PutAfter(delay Time, v T) {
	var e *mailFlight[T]
	if n := len(m.free); n > 0 {
		e = m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
	} else {
		e = &mailFlight[T]{}
		e.fn = func() {
			v := e.v
			var zero T
			e.v = zero
			m.free = append(m.free, e)
			m.Put(v)
		}
	}
	e.v = v
	m.eng.After(delay, e.fn)
}

// TryReceive dequeues the head message without blocking.
func (m *Mailbox[T]) TryReceive() (T, bool) {
	var zero T
	if len(m.items) == 0 {
		return zero, false
	}
	v := m.items[0]
	copy(m.items, m.items[1:])
	m.items[len(m.items)-1] = zero
	m.items = m.items[:len(m.items)-1]
	return v, true
}

// Receive dequeues the head message, blocking the process until one is
// available.
func (m *Mailbox[T]) Receive(p *Process) T {
	for {
		if v, ok := m.TryReceive(); ok {
			return v
		}
		p.WaitSignal(m.sig)
	}
}

// ReceiveMatch dequeues the first message satisfying pred, blocking until
// one arrives. Non-matching messages stay queued in order.
func (m *Mailbox[T]) ReceiveMatch(p *Process, pred func(T) bool) T {
	for {
		if v, ok := m.takeMatch(pred); ok {
			return v
		}
		p.WaitSignal(m.sig)
	}
}

// ReceiveMatchUntil dequeues the first message satisfying pred, blocking
// until one arrives or virtual time reaches deadline. ok is false on
// timeout. The deadline is absolute, so retry loops that re-arm with a
// new deadline compose naturally.
func (m *Mailbox[T]) ReceiveMatchUntil(p *Process, pred func(T) bool, deadline Time) (T, bool) {
	for {
		if v, ok := m.takeMatch(pred); ok {
			return v, true
		}
		if p.WaitSignalUntil(m.sig, deadline) {
			// Timed out. A message put at this exact instant may have won
			// the race against the timer, so poll once more.
			return m.takeMatch(pred)
		}
	}
}

// takeMatch dequeues the first message satisfying pred without blocking.
func (m *Mailbox[T]) takeMatch(pred func(T) bool) (T, bool) {
	for i, v := range m.items {
		if pred(v) {
			var zero T
			copy(m.items[i:], m.items[i+1:])
			m.items[len(m.items)-1] = zero
			m.items = m.items[:len(m.items)-1]
			return v, true
		}
	}
	var zero T
	return zero, false
}
