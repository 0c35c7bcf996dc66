package ctrl

import (
	"slices"

	"repro/internal/policy"
	"repro/internal/sim"
)

// laserSnap is a statistics snapshot of one laser over the previous
// reconfiguration window.
type laserSnap struct {
	linkUtil float64
	bufUtil  float64
	queueLen int
	// dropped counts packets dropped at the laser over the window
	// (always 0 without fault injection).
	dropped uint64
}

// msgKind distinguishes the two ring circulations of the DBR exchange.
type msgKind uint8

const (
	boardRequest msgKind = iota
	boardResponse
)

// boardMsg is an RC→RC control packet on the electrical ring.
type boardMsg struct {
	kind   msgKind
	origin int // board whose incoming channels the message describes
	// window and attempt tag the message for the fault-tolerant exchange:
	// receivers discard messages from older windows, and an origin
	// recognizes which retry came back. Unused (but set) when receives
	// are unbounded.
	window  uint64
	attempt int
	// entries is indexed by wavelength (1..B-1).
	entries []chanEntry
	// assign, for board-response messages, is the new holder per
	// wavelength.
	assign []int
}

// chanEntry describes one incoming channel (origin, w) as seen by the
// boards the request passed through.
type chanEntry struct {
	holder int
	// Holder-reported statistics for its laser (w → origin).
	linkUtil float64
	bufUtil  float64
	queueLen int
	// dead marks the holder's laser permanently failed: the channel is
	// dark and must be repaired onto a surviving laser.
	dead bool
	// ownerDemand is the static owner's buffer utilization toward origin
	// (nonzero when the owner is starving for a channel it lent out).
	ownerDemand float64
	ownerQueue  int
	// ownerDrops counts packets the static owner dropped toward origin
	// over the window: a flow whose only laser died keeps dropping
	// without ever queueing, and this is its demand signal.
	ownerDrops uint64
}

// flight is one ring message in transit: the record and its arrive
// closure are built once and recycled through System.flightFree, so a
// steady-state hop allocates nothing.
type flight struct {
	to *RC
	m  *boardMsg
	fn func()
}

// RC is one board's reconfiguration controller: an explicit state
// machine whose every blocking point — window wake, LC hop, stage
// delay, ring arrival, receive deadline — is one engine callback, bound
// once in newRC. Between callbacks the fields below are the whole state.
type RC struct {
	sys   *System
	board int

	// pol decides this board's level moves and wavelength grants; the
	// RC owns applying them safely (see the policy package contracts).
	pol policy.Policy

	// windows is the index k of the window being processed (k·R_w is its
	// nominal wake time); cycleStart is when its cycle began.
	windows    uint64
	cycleStart uint64
	// snap is the window-snapshot scratch, reused across windows (each
	// window's snapshot is fully consumed before the next one is taken).
	snap [][]laserSnap
	// chanObs is the Reconfigure-stage observation scratch handed to the
	// policy, reused so the stage only allocates the assign map it
	// publishes; bwCtx carries the topology/fabric callbacks, built once.
	chanObs []policy.ChanObs
	bwCtx   policy.BandwidthCtx

	// lc is the next Link Controller on the power cycle's LC chain.
	lc int
	// full is the completed Board Request awaiting the Reconfigure
	// stage; assign is the holder map it produced, circulated by Board
	// Response and applied by Link Response.
	full   *boardMsg
	assign []int

	// Ring receive state. inbox holds arrived messages in arrival order;
	// recvKind is the circulation in progress (other kinds stay queued);
	// waiting is set while the RC is blocked on an arrival. With bounded
	// receives, deadline is the absolute give-up time, timer the engine
	// event armed for it, and timeout/attempt the retry schedule.
	inbox    []*boardMsg
	recvKind msgKind
	waiting  bool
	deadline uint64
	timer    sim.EventID
	timeout  uint64
	attempt  int

	onWake, onLCHop, onBoardRequest, onReconfigure, onLinkResponse, onConsume, onDeadline func()
}

func newRC(s *System, board int) *RC {
	rc := &RC{sys: s, board: board}
	rc.chanObs = make([]policy.ChanObs, s.top.Boards())
	rc.bwCtx.StaticOwner = func(w int) int { return s.top.StaticOwner(rc.board, w) }
	rc.bwCtx.LaserHealthy = func(src, w int) bool { return s.fab.LaserHealthy(src, w, rc.board) }
	rc.onWake = rc.nextWindow
	rc.onLCHop = rc.lcHop
	rc.onBoardRequest = rc.boardRequest
	rc.onReconfigure = rc.reconfigure
	rc.onLinkResponse = rc.linkResponse
	rc.onConsume = func() {
		s.eng.Cancel(rc.timer) // no-op when unarmed or already fired
		rc.receive()
	}
	rc.onDeadline = func() {
		// An arrival at this same instant that was scheduled first has
		// already claimed the wake-up: its consume event decides.
		if rc.waiting {
			rc.waiting = false
			rc.receive()
		}
	}
	return rc
}

// nextWindow is both how a finished cycle goes back to sleep and the
// wake callback itself: it schedules the wake for the next R_w boundary,
// or — at the boundary, or past it after a cycle that overran R_w —
// runs the due windows until one starts a cycle or the RC has caught up.
func (rc *RC) nextWindow() {
	for {
		if target := (rc.windows + 1) * rc.sys.cfg.Window; target > rc.sys.eng.Now() {
			rc.sys.eng.At(target, rc.onWake)
			return
		}
		if rc.window() {
			return
		}
	}
}

// window processes one R_w boundary: snapshot the lasers, then start
// the power (odd) or bandwidth (even) cycle. It reports whether a cycle
// is now in progress; the cycle's last callback calls nextWindow.
func (rc *RC) window() bool {
	sys := rc.sys
	rc.windows++
	sys.ctr.Windows++
	rc.snapshotAndReset()
	rc.cycleStart = sys.eng.Now()
	switch {
	case rc.windows%2 == 1 && sys.cfg.PowerAware:
		// Dynamic Power Regulation (Sec. 3.1): the Power_Request packet
		// traverses the LC chain, one hop per transmitter.
		sys.ctr.PowerCycles++
		sys.stage(rc.board, "power-request")
		rc.lc = 1
		sys.eng.After(sys.cfg.LCHopCycles, rc.onLCHop)
		return true
	case rc.windows%2 == 0 && sys.cfg.BandwidthReconfig:
		// Stage 1 of the LS DBR exchange (Sec. 3.2): Link Request — the
		// request visits every LC and returns to the RC.
		sys.ctr.BandwidthCyles++
		sys.stage(rc.board, "link-request")
		sys.eng.After(uint64(sys.top.Boards())*sys.cfg.LCHopCycles, rc.onBoardRequest)
		return true
	}
	return false
}

// snapshotAndReset captures every local laser's window statistics into
// rc.snap (indexed [w][d]) and resets the windows for the next R_w.
func (rc *RC) snapshotAndReset() {
	b := rc.sys.top.Boards()
	// Idle lasers accrue window statistics lazily; bring this board's up
	// to date before reading and resetting the windows (the snapshot only
	// reads local lasers, and every board's RC flushes its own).
	rc.sys.fab.FlushBoardStats(rc.board, rc.sys.eng.Now())
	if rc.snap == nil {
		rc.snap = make([][]laserSnap, b)
		for w := 1; w < b; w++ {
			rc.snap[w] = make([]laserSnap, b)
		}
	}
	snap := rc.snap
	for w := 1; w < b; w++ {
		for d := 0; d < b; d++ {
			l := rc.sys.fab.Laser(rc.board, w, d)
			if l == nil {
				snap[w][d] = laserSnap{}
				continue
			}
			snap[w][d] = laserSnap{
				linkUtil: l.LinkWin.Utilization(),
				bufUtil:  l.BufWin.Utilization(),
				queueLen: l.QueueLen(),
				dropped:  l.TakeDropWindow(),
			}
			l.LinkWin.Reset()
			l.BufWin.Reset()
		}
	}
}

// lcHop is one hop of the Power_Request along the LC chain: LC rc.lc
// consults the policy and scales its lasers locally (the RC receives no
// LC state back); the hop after the last LC returns the request to the
// RC and completes the cycle.
func (rc *RC) lcHop() {
	sys := rc.sys
	b := sys.top.Boards()
	now := sys.eng.Now()
	w := rc.lc
	if w >= b {
		sys.stage(rc.board, "power-complete")
		sys.ctr.PowerCycleBusy += now - rc.cycleStart
		rc.nextWindow()
		return
	}
	relock := sys.fab.Config().RelockCycles
	ladder := sys.fab.Config().Ladder
	for d := 0; d < b; d++ {
		l := sys.fab.Laser(rc.board, w, d)
		if l == nil {
			continue
		}
		if sys.fab.Channel(d, w).Holder() != rc.board {
			continue // laser dark: channel driven by another board
		}
		if l.Failed() {
			continue // DPM leaves failed lasers alone until they recover
		}
		st := rc.snap[w][d]
		obs := policy.LinkObs{
			Wavelength: w,
			Dest:       d,
			Level:      l.Level(),
			LinkUtil:   st.linkUtil,
			BufUtil:    st.bufUtil,
			QueueLen:   st.queueLen,
			Dropped:    st.dropped,
			LiveQueue:  l.QueueLen(),
			Busy:       l.Busy(now),
		}
		target := rc.pol.Power(obs)
		if target == obs.Level {
			continue
		}
		switch {
		case target == 0:
			// Shutdown is applied only when the laser is drained and not
			// mid-transmission; otherwise the preference is deferred to a
			// later window (the safety contract).
			if obs.LiveQueue != 0 || obs.QueueLen != 0 || obs.Busy {
				continue
			}
			l.SetLevel(0, now, relock)
			sys.ctr.Shutdowns++
		case !ladder.Operating(target):
			continue // invalid preference: ignored
		case target > obs.Level:
			// Scale up, or a policy-driven pre-wake from Off.
			l.SetLevel(target, now, relock)
			sys.ctr.LevelUps++
		default:
			l.SetLevel(target, now, relock)
			sys.ctr.LevelDowns++
		}
	}
	rc.lc++
	sys.eng.After(sys.cfg.LCHopCycles, rc.onLCHop)
}

// boardRequest is stage 2, Board Request: circulate a request for my
// incoming link statistics; meanwhile receive fills in the requests of
// the other boards from my outgoing snapshot.
func (rc *RC) boardRequest() {
	rc.sys.stage(rc.board, "board-request")
	rc.circulate(boardRequest)
}

// reconfigure is stage 3 (after its compute delay) and the start of
// stage 4: hand the assembled channel observations to the policy, which
// computes the new holder map, then circulate the map so source boards
// update their outgoing tables.
func (rc *RC) reconfigure() {
	sys := rc.sys
	b := sys.top.Boards()
	full := rc.full
	rc.full = nil
	for w := 1; w < b; w++ {
		e := full.entries[w]
		rc.chanObs[w] = policy.ChanObs{
			Holder:      e.holder,
			LinkUtil:    e.linkUtil,
			BufUtil:     e.bufUtil,
			QueueLen:    e.queueLen,
			Dead:        e.dead,
			OwnerDemand: e.ownerDemand,
			OwnerQueue:  e.ownerQueue,
			OwnerDrops:  e.ownerDrops,
		}
	}
	// assign escapes into the circulated response, so it is the one
	// per-window allocation; it is handed to the policy pre-filled with
	// the current holder map.
	assign := make([]int, b)
	for w := 1; w < b; w++ {
		assign[w] = full.entries[w].holder
	}
	rc.bwCtx.Window = rc.windows
	rc.bwCtx.Repairs = 0
	rc.assign = rc.pol.Bandwidth(&rc.bwCtx, rc.chanObs, assign)
	sys.ctr.FaultRepairs += uint64(rc.bwCtx.Repairs)
	sys.putMsg(full)

	sys.stage(rc.board, "board-response")
	rc.circulate(boardResponse)
}

// linkResponse is stage 5 (after its LC-chain delay): program the LCs —
// lasers switch on/off and receivers re-lock.
func (rc *RC) linkResponse() {
	sys := rc.sys
	b := sys.top.Boards()
	now := sys.eng.Now()
	for w := 1; w < b; w++ {
		newHolder := rc.assign[w]
		if newHolder < 0 || newHolder >= b || newHolder == rc.board {
			continue // invalid grant: ignored (the safety contract)
		}
		ch := sys.fab.Channel(rc.board, w)
		if newHolder == ch.Holder() {
			continue
		}
		wasReclaim := newHolder == sys.top.StaticOwner(rc.board, w)
		if err := sys.fab.Reassign(rc.board, w, newHolder, sys.cfg.AcquireLevel, now); err != nil {
			// The holder accumulated traffic between snapshot and apply;
			// leave the channel in place this window.
			sys.ctr.FailedMoves++
			continue
		}
		sys.ctr.Reassignments++
		if wasReclaim {
			sys.ctr.Reclaims++
		}
	}
	sys.stage(rc.board, "complete")
	rc.endBandwidthCycle()
}

// endBandwidthCycle accounts the cycle's duration — completed or
// abandoned — and goes back to sleep.
func (rc *RC) endBandwidthCycle() {
	rc.sys.ctr.BandwidthCycleBusy += rc.sys.eng.Now() - rc.cycleStart
	rc.nextWindow()
}

// newMsg builds this RC's message for the circulation in progress,
// current window and attempt, reusing a recycled record when one is
// free: a board-request starts with the current holder of each incoming
// channel, a board-response carries the new holder map.
func (rc *RC) newMsg() *boardMsg {
	b := rc.sys.top.Boards()
	m := rc.sys.getMsg()
	m.kind = rc.recvKind
	m.origin = rc.board
	m.window = rc.windows
	m.attempt = rc.attempt
	if m.kind == boardResponse {
		m.assign = rc.assign
		return m
	}
	if cap(m.entries) < b {
		m.entries = make([]chanEntry, b)
	} else {
		m.entries = m.entries[:b]
		for i := range m.entries {
			m.entries[i] = chanEntry{}
		}
	}
	for w := 1; w < b; w++ {
		m.entries[w].holder = rc.sys.fab.Channel(rc.board, w).Holder()
	}
	return m
}

// circulate starts a ring circulation: send this RC's message and
// receive until it comes back.
func (rc *RC) circulate(kind msgKind) {
	rc.recvKind = kind
	rc.attempt = 0
	rc.timeout = rc.sys.cfg.RecvTimeoutCycles
	rc.deadline = rc.sys.eng.Now() + rc.timeout
	rc.send(rc.newMsg())
	rc.receive()
}

// receive is the one receive loop of both circulations. It takes every
// queued message of the kind in progress, forwarding the other boards'
// (a board-request after filling in this board's entries), until this
// RC's own message is back — any attempt of it that made it all the way
// around is complete — and then moves to the next stage. With nothing to
// take it blocks: waiting is set and, iff RecvTimeoutCycles > 0, the
// deadline timer armed. A deadline already reached times out without
// scheduling anything: the message is re-sent with a doubled timeout, up
// to RecvRetries times, after which the circulation is given up — never
// wedged.
//
// Ordering contract (core's cells.golden pins it). An arrival and its
// consumption are two events: arrive queues the message and, if the RC
// is waiting, schedules one zero-delay onConsume, which cancels the
// timer and re-enters this loop — so each return to waiting re-arms the
// timer under a new sequence number, and a deadline that fires after a
// same-instant arrival is a no-op. They must not be merged: same-instant
// actions of different boards draw from the ring-fault RNG (one draw per
// hop) and emit StageEnter in event order.
func (rc *RC) receive() {
	sys := rc.sys
	bounded := sys.cfg.RecvTimeoutCycles > 0
	for {
		m := rc.take()
		switch {
		case m == nil:
			if !bounded || rc.deadline > sys.eng.Now() {
				rc.waiting = true
				if bounded {
					rc.timer = sys.eng.At(rc.deadline, rc.onDeadline)
				}
				return
			}
			if rc.attempt >= sys.cfg.RecvRetries {
				rc.circulated(nil)
				return
			}
			sys.ctr.Timeouts++
			sys.ctr.Retries++
			rc.attempt++
			rc.timeout *= 2
			rc.deadline = sys.eng.Now() + rc.timeout
			rc.send(rc.newMsg())
		case bounded && m.window < rc.windows:
			sys.ctr.StaleMsgs++ // leftover from an earlier window
			sys.putMsg(m)
		case m.origin == rc.board:
			rc.circulated(m)
			return
		default:
			if m.kind == boardRequest {
				rc.fillEntries(m)
			}
			rc.send(m)
		}
	}
}

// circulated ends the circulation in progress; m is this RC's own
// message back from the ring, or nil when the retries ran out.
func (rc *RC) circulated(m *boardMsg) {
	sys := rc.sys
	switch {
	case rc.recvKind == boardResponse:
		// A response lost beyond the retry budget is abandoned silently:
		// the local assignment still applies in Link Response, and remote
		// boards observe the holder change through their own next Board
		// Request.
		if m != nil {
			sys.putMsg(m)
		}
		sys.stage(rc.board, "link-response")
		sys.eng.After(uint64(sys.top.Boards())*sys.cfg.LCHopCycles, rc.onLinkResponse)
	case m == nil:
		// Fault injection lost the request for good: give up reconfiguring
		// this window rather than wedge the lock-step schedule. The fabric
		// keeps its current assignment.
		sys.ctr.AbandonedCycles++
		sys.stage(rc.board, "abandoned")
		rc.endBandwidthCycle()
	default:
		rc.full = m
		sys.stage(rc.board, "reconfigure")
		sys.eng.After(sys.cfg.ComputeCycles, rc.onReconfigure)
	}
}

// fillEntries adds this board's knowledge to another board's
// board-request: statistics for the incoming channels of m.origin that
// this board currently drives, and the owner-demand field for the
// channel this board statically owns.
func (rc *RC) fillEntries(m *boardMsg) {
	sys := rc.sys
	b := sys.top.Boards()
	for w := 1; w < b; w++ {
		ch := sys.fab.Channel(m.origin, w)
		if ch.Holder() == rc.board {
			st := rc.snap[w][m.origin]
			m.entries[w].holder = rc.board
			m.entries[w].linkUtil = st.linkUtil
			m.entries[w].bufUtil = st.bufUtil
			m.entries[w].queueLen = st.queueLen
			l := sys.fab.Laser(rc.board, w, m.origin)
			m.entries[w].dead = l == nil || l.PermanentlyFailed()
		}
		if sys.top.StaticOwner(m.origin, w) == rc.board {
			st := rc.snap[w][m.origin]
			m.entries[w].ownerDemand = st.bufUtil
			m.entries[w].ownerQueue = st.queueLen
			m.entries[w].ownerDrops = st.dropped
		}
	}
}

// send forwards a message to the next RC on the ring with the hop
// latency. An attached ring-fault filter may drop the message or add
// delay; the healthy path costs one nil check.
func (rc *RC) send(m *boardMsg) {
	sys := rc.sys
	sys.ctr.MessagesSent++
	next := (rc.board + 1) % sys.top.Boards()
	delay := sys.cfg.RingHopCycles
	if sys.ringFault != nil {
		drop, extra := sys.ringFault.FilterRingMsg(rc.board, next, sys.eng.Now())
		if drop {
			return
		}
		delay += extra
	}
	var f *flight
	if n := len(sys.flightFree); n > 0 {
		f = sys.flightFree[n-1]
		sys.flightFree = sys.flightFree[:n-1]
	} else {
		f = &flight{}
		f.fn = func() {
			to, m := f.to, f.m
			f.to, f.m = nil, nil
			sys.flightFree = append(sys.flightFree, f)
			to.arrive(m)
		}
	}
	f.to, f.m = sys.rcs[next], m
	sys.eng.After(delay, f.fn)
}

// arrive queues a message off the ring and, if the RC is blocked in
// receive, schedules its consumption later in this instant (see the
// ordering contract on receive).
func (rc *RC) arrive(m *boardMsg) {
	rc.inbox = append(rc.inbox, m)
	if rc.waiting {
		rc.waiting = false
		rc.sys.eng.After(0, rc.onConsume)
	}
}

// take dequeues the first queued message of the kind being received.
// Other kinds stay queued in arrival order: with equal stage timings the
// lock-step schedule never interleaves kinds, but the protocol does not
// depend on that.
func (rc *RC) take() *boardMsg {
	for i, m := range rc.inbox {
		if m.kind == rc.recvKind {
			rc.inbox = slices.Delete(rc.inbox, i, i+1)
			return m
		}
	}
	return nil
}
