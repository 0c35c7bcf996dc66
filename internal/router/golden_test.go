package router

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/flit"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/arbitration.golden")

const arbitrationGolden = "testdata/arbitration.golden"

// hashSink is an output channel that hashes every flit the router sends
// it — traverse cycle, input port/VC, output port/VC, packet, flit index
// — and returns each credit a per-output number of cycles after arrival.
type hashSink struct {
	r         *Router
	out       int
	link      OutputLink
	creditLag uint64
	inVC      map[flit.PacketID]int
	h         hash.Hash64
	delivered *int
	scratch   [8]byte
}

func (s *hashSink) word(v uint64) {
	binary.LittleEndian.PutUint64(s.scratch[:], v)
	s.h.Write(s.scratch[:])
}

func (s *hashSink) PutFlit(f *flit.Flit, readyAt uint64) {
	s.word(readyAt - s.link.FlitCycles - s.link.ExtraDelay)
	s.word(uint64(f.Packet.Src))
	s.word(uint64(s.inVC[f.Packet.ID]))
	s.word(uint64(s.out))
	s.word(uint64(f.VC))
	s.word(uint64(f.Packet.ID))
	s.word(uint64(f.Index))
	if f.IsTail() {
		*s.delivered++
	}
	s.r.CreditSink(s.out).PutCredit(f.VC, readyAt+s.creditLag)
}

// vcSender feeds one input port from a queue per VC. Each cycle it sends
// at most one flit, from the first VC at or after its round-robin pointer
// that has a flit and a matured credit.
type vcSender struct {
	r       *Router
	port    int
	queues  [][]*flit.Flit
	credits []int
	pending []creditEntry
	rr      int
}

func (s *vcSender) PutCredit(vc int, readyAt uint64) {
	s.pending = append(s.pending, creditEntry{vc: vc, readyAt: readyAt})
}

func (s *vcSender) tick(now uint64) {
	kept := s.pending[:0]
	for _, ce := range s.pending {
		if ce.readyAt <= now {
			s.credits[ce.vc]++
		} else {
			kept = append(kept, ce)
		}
	}
	s.pending = kept
	n := len(s.queues)
	for dv := 0; dv < n; dv++ {
		v := (s.rr + dv) % n
		if len(s.queues[v]) == 0 || s.credits[v] == 0 {
			continue
		}
		f := s.queues[v][0]
		s.queues[v] = s.queues[v][1:]
		s.credits[v]--
		s.r.InputSink(s.port).PutFlit(f, now+1)
		s.rr = (v + 1) % n
		return
	}
}

func (s *vcSender) idle() bool {
	for _, q := range s.queues {
		if len(q) > 0 {
			return false
		}
	}
	return len(s.pending) == 0
}

// arbRouter is a router under seeded random traffic. Its Route is
// stateful (a round-robin over three outputs for odd destinations, as
// the IBI's transmitter choice is), so the order RC visits VCs in shows
// in the traverse hash.
type arbRouter struct {
	r  *Router
	rr int // Route's round-robin state
}

func newArbRouter(ports, vcs, depth int) *arbRouter {
	a := &arbRouter{}
	a.r = MustNew(Config{
		Name: "arb", Inputs: ports, Outputs: ports, VCs: vcs, BufDepth: depth,
		Route: func(p *flit.Packet) int {
			a.rr++
			if p.Dst%2 == 0 {
				return p.Dst
			}
			return (p.Dst + a.rr%3) % ports
		},
	})
	return a
}

// drive wires fresh senders and output sinks to the router and runs
// seeded traffic through it, checking the index after every cycle. If
// the router drains before cycle stop, it returns a hash of every
// traverse together with the final Counters; otherwise it returns "".
func (a *arbRouter) drive(t *testing.T, stop uint64) string {
	t.Helper()
	r := a.r
	ports, vcs, depth := r.cfg.Inputs, r.cfg.VCs, r.cfg.BufDepth
	rng := rand.New(rand.NewSource(int64(ports*100 + vcs*10 + depth)))
	a.rr = 0
	h := fnv.New64a()
	inVC := map[flit.PacketID]int{}
	delivered := 0
	for o := 0; o < ports; o++ {
		link := OutputLink{FlitCycles: uint64(1 + o%3), ExtraDelay: uint64(o % 2), DownVCs: 1 + o%vcs, DownDepth: 1 + o%3}
		link.Sink = &hashSink{r: r, out: o, link: link, creditLag: uint64(1 + o%4), inVC: inVC, h: h, delivered: &delivered}
		r.ConnectOutput(o, link)
	}
	senders := make([]*vcSender, ports)
	for p := range senders {
		s := &vcSender{r: r, port: p, queues: make([][]*flit.Flit, vcs), credits: make([]int, vcs)}
		for v := range s.credits {
			s.credits[v] = depth
		}
		r.SetInputCreditSink(p, s)
		senders[p] = s
	}
	const injectCycles = 1500
	rate := 4.0 / float64(ports+8) // a few packets per cycle, router-wide
	id := 0
	now := uint64(0)
	for ; now < stop; now++ {
		if now < injectCycles {
			for p, s := range senders {
				if rng.Float64() >= rate {
					continue
				}
				v := rng.Intn(vcs)
				if len(s.queues[v]) > 32 {
					continue
				}
				id++
				pk := &flit.Packet{ID: flit.PacketID(id), Src: p, Dst: rng.Intn(ports), Size: 8 * (1 + rng.Intn(4)), FlitBytes: 8}
				inVC[pk.ID] = v
				for _, f := range flit.Explode(pk) {
					f.VC = v
					s.queues[v] = append(s.queues[v], f)
				}
			}
		}
		for _, s := range senders {
			s.tick(now)
		}
		r.Tick(now)
		if err := r.CheckIndex(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
		if now >= injectCycles && delivered == id && !r.HasWork() {
			break
		}
	}
	if now == stop {
		return ""
	}
	for _, s := range senders {
		s.tick(now + 1)
		if !s.idle() {
			t.Fatalf("sender %d still holds work after drain", s.port)
		}
	}
	return fmt.Sprintf("packets=%d cycles=%d traverses=%016x %+v", id, now, h.Sum64(), r.Counters())
}

// TestArbitrationGolden pins the router's arbitration — the order and
// cycle of every traverse, and the final Counters — across radixes that
// span one, one and two set words, VC counts 1–3, buffer depths 1–4
// (deep buffers reach traverse's tail with a next head already waiting),
// and outputs whose flits take 1–3 cycles.
func TestArbitrationGolden(t *testing.T) {
	want := map[string]string{}
	if !*updateGolden {
		f, err := os.Open(arbitrationGolden)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, rest, ok := strings.Cut(sc.Text(), " "); ok {
				want[name] = rest
			}
		}
		f.Close()
	}
	var lines []string
	for _, ports := range []int{3, 15, 71} {
		for vcs := 1; vcs <= 3; vcs++ {
			for _, depth := range []int{1, 2, 4} {
				name := fmt.Sprintf("p%d-vc%d-d%d", ports, vcs, depth)
				got := newArbRouter(ports, vcs, depth).drive(t, 50000)
				if got == "" {
					t.Fatalf("%s: router did not drain", name)
				}
				lines = append(lines, name+" "+got)
				if !*updateGolden && want[name] != got {
					t.Errorf("%s: got %q, golden %q", name, got, want[name])
				}
			}
		}
	}
	if *updateGolden && !t.Failed() {
		if err := os.WriteFile(arbitrationGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
