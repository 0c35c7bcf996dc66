package optical

import (
	"math/rand"
	"testing"

	"repro/internal/flit"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// recEvent is one recorded sink/hook/delivery callback, normalized
// so streams from two fabrics compare with ==.
type recEvent struct {
	kind     string
	s, w, d  int
	pkt      flit.PacketID
	from, to int
	at       uint64
}

// recorder captures the full ordered side-effect stream of one fabric:
// telemetry events, drop-hook calls and deliveries, interleaved exactly
// as the fabric emits them.
type recorder struct{ evs []recEvent }

func (r *recorder) Emit(ev telemetry.Event) {
	r.evs = append(r.evs, recEvent{kind: ev.Kind.String(), s: ev.Board, w: ev.Wavelength, d: ev.Dest,
		pkt: flit.PacketID(ev.Packet), from: ev.From, to: ev.To, at: ev.Cycle})
}
func (r *recorder) drop(p *flit.Packet, now uint64) {
	r.evs = append(r.evs, recEvent{kind: "drop", pkt: p.ID, at: now})
}
func (r *recorder) deliver(d, w int) DeliverFunc {
	return func(p *flit.Packet, now uint64) {
		r.evs = append(r.evs, recEvent{kind: "deliver", w: w, d: d, pkt: p.ID, at: now})
	}
}

// loadedFabric builds a b-board fabric wired to a recorder, with
// auto-wake on (so level events and wake tallies cross the outboxes), a
// permanently failed laser (so drop-hook calls do too) and metering
// enabled from cycle 0.
func loadedFabric(t testing.TB, boards int) (*Fabric, *sim.Engine, *recorder) {
	top := topology.MustNewSRS(boards, 4)
	eng := sim.NewEngine()
	cfg := testConfig()
	f, err := NewFabric(top, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	f.SetSink(rec)
	f.SetDropHook(rec.drop)
	f.SetAutoWake(f.cfg.Ladder.Bottom())
	f.EnableMetering(true)
	for d := 0; d < boards; d++ {
		for w := 1; w < boards; w++ {
			f.SetDeliver(d, w, rec.deliver(d, w))
		}
	}
	// One permanently dead laser: packets (2 -> its destination) routed
	// there exercise the deferred drop path.
	f.Laser(2, top.Wavelength(2, 1), 1).permFailed = true
	// A few lasers start Off so enqueues trigger deferred auto-wakes.
	for s := 0; s < boards; s++ {
		f.Laser(s, top.Wavelength(s, (s+1)%boards), (s+1)%boards).SetLevel(0, 0, 0)
	}
	return f, eng, rec
}

// feedTraffic pushes an identical pseudo-random packet workload into
// both fabrics (distinct packet objects, same IDs/routes/cycles).
// Returns the per-cycle injection schedule so the driver can replay it.
type injection struct {
	cycle  uint64
	s, d   int
	vc, id int
}

func trafficSchedule(boards int, cycles uint64) []injection {
	rng := rand.New(rand.NewSource(7))
	var sched []injection
	id := 1
	for c := uint64(0); c < cycles; c += 1 + uint64(rng.Intn(3)) {
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			s := rng.Intn(boards)
			d := rng.Intn(boards)
			if d == s {
				d = (s + 1) % boards
			}
			sched = append(sched, injection{cycle: c, s: s, d: d, vc: rng.Intn(2), id: id})
			id++
		}
	}
	return sched
}

func injectDue(f *Fabric, top *topology.Topology, sched []injection, idx *int, now uint64) {
	for *idx < len(sched) && sched[*idx].cycle <= now {
		in := sched[*idx]
		*idx++
		w := top.Wavelength(in.s, in.d)
		tx := f.Transmitter(in.s, w)
		// Respect the credit protocol: skip an injection whose reassembly
		// buffer hasn't drained. The decision depends only on fabric state,
		// which is bit-identical across the serial and parallel drives, so
		// both skip the same injections.
		if tx.PendingFlits() > 0 {
			continue
		}
		sendPacket(tx, mkPkt(in.id, in.s, in.d), in.vc, now)
	}
}

// TestCommitReplayMatchesSerialOrder is the outbox-ordering contract:
// however adversarially the per-board compute ticks are interleaved,
// CommitBoardTick replays the deferred side effects in exactly the
// serial Tick's emission order — same event stream byte-for-byte, same
// delivery order, same float-addition order for the idle aggregate and
// the power meter.
func TestCommitReplayMatchesSerialOrder(t *testing.T) {
	const boards = 6
	const cycles = 1200
	top := topology.MustNewSRS(boards, 4)

	// Adversarial board visitation orders for the parallel drive:
	// reverse, odds-then-evens, and a per-cycle rotation.
	orders := map[string]func(cycle uint64) []int{
		"reverse": func(uint64) []int {
			o := make([]int, boards)
			for i := range o {
				o[i] = boards - 1 - i
			}
			return o
		},
		"odds-first": func(uint64) []int {
			var o []int
			for i := 1; i < boards; i += 2 {
				o = append(o, i)
			}
			for i := 0; i < boards; i += 2 {
				o = append(o, i)
			}
			return o
		},
		"rotating": func(c uint64) []int {
			o := make([]int, boards)
			for i := range o {
				o[i] = (i + int(c)) % boards
			}
			return o
		},
	}

	sched := trafficSchedule(boards, cycles)

	// Serial reference.
	sf, seng, srec := loadedFabric(t, boards)
	si := 0
	for now := uint64(0); now < cycles; now++ {
		seng.RunUntil(now)
		injectDue(sf, top, sched, &si, now)
		sf.Tick(now)
	}

	for name, order := range orders {
		t.Run(name, func(t *testing.T) {
			pf, peng, prec := loadedFabric(t, boards)
			pf.EnableParallel(true)
			pi := 0
			for now := uint64(0); now < cycles; now++ {
				peng.RunUntil(now)
				pf.DeliverDue(now)
				injectDue(pf, top, sched, &pi, now)
				pf.BeginBoardTick()
				for _, s := range order(now) {
					pf.TickBoards(s, s+1, now)
				}
				pf.CommitBoardTick(now)
			}
			if len(srec.evs) == 0 {
				t.Fatal("serial reference emitted no events")
			}
			if len(prec.evs) != len(srec.evs) {
				t.Fatalf("event stream length %d, serial %d", len(prec.evs), len(srec.evs))
			}
			for i := range srec.evs {
				if prec.evs[i] != srec.evs[i] {
					t.Fatalf("event %d diverges\nserial:   %+v\nparallel: %+v", i, srec.evs[i], prec.evs[i])
				}
			}
			if pf.idleLitMW != sf.idleLitMW {
				t.Errorf("idleLitMW %v, serial %v (float-addition order diverged)", pf.idleLitMW, sf.idleLitMW)
			}
			if pf.wakes != sf.wakes {
				t.Errorf("wakes %d, serial %d", pf.wakes, sf.wakes)
			}
			if pf.delSeq != sf.delSeq {
				t.Errorf("delivery seq %d, serial %d", pf.delSeq, sf.delSeq)
			}
			pm, sm := pf.Meter(), sf.Meter()
			if pm.AvgSupplyMW() != sm.AvgSupplyMW() || pm.AvgDynamicMW() != sm.AvgDynamicMW() {
				t.Errorf("meter (%v, %v), serial (%v, %v)",
					pm.AvgSupplyMW(), pm.AvgDynamicMW(), sm.AvgSupplyMW(), sm.AvgDynamicMW())
			}
		})
	}
}

// BenchmarkOutboxCommit measures one loaded compute+commit round trip
// through the per-board logs: the steady state must not allocate (the
// logs retain their backing arrays across cycles).
func BenchmarkOutboxCommit(b *testing.B) {
	const boards = 8
	top := topology.MustNewSRS(boards, 4)
	f, eng, _ := loadedFabric(b, boards)
	f.EnableParallel(true)
	// Pre-build every injection's flit stream so the timed loop measures
	// only the compute+commit machinery, not packet construction.
	sched := trafficSchedule(boards, uint64(b.N))
	flits := make([][]*flit.Flit, len(sched))
	for i, in := range sched {
		fls := flit.Explode(mkPkt(in.id, in.s, in.d))
		for _, fl := range fls {
			fl.VC = in.vc
		}
		flits[i] = fls
	}
	idx := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := uint64(i)
		eng.RunUntil(now)
		f.DeliverDue(now)
		for idx < len(sched) && sched[idx].cycle <= now {
			in := sched[idx]
			tx := f.Transmitter(in.s, top.Wavelength(in.s, in.d))
			if tx.PendingFlits() == 0 {
				for _, fl := range flits[idx] {
					tx.PutFlit(fl, now)
				}
			}
			idx++
		}
		f.BeginBoardTick()
		for s := 0; s < boards; s++ {
			f.TickBoards(s, s+1, now)
		}
		f.CommitBoardTick(now)
	}
}
