package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestPaperComplementExample(t *testing.T) {
	// Paper Sec 4.2: "nodes 0, 1, 2 ... 7 on board 0 communicates with node
	// 63, 62, 61, ... 56 on board 7" for 64 nodes.
	p := MustNew(Complement, 64)
	for src := 0; src <= 7; src++ {
		want := 63 - src
		if got := p.Dest(src, nil); got != want {
			t.Errorf("complement(%d) = %d, want %d", src, got, want)
		}
	}
}

func TestButterflySwapsMSBAndLSB(t *testing.T) {
	p := MustNew(Butterfly, 64)
	cases := map[int]int{
		0b000001: 0b100000,
		0b100000: 0b000001,
		0b100001: 0b100001, // fixed point: msb == lsb
		0b011110: 0b011110,
		0b101010: 0b001011,
	}
	for src, want := range cases {
		if got := p.Dest(src, nil); got != want {
			t.Errorf("butterfly(%06b) = %06b, want %06b", src, got, want)
		}
	}
}

func TestShuffleRotatesLeft(t *testing.T) {
	p := MustNew(Shuffle, 64)
	cases := map[int]int{
		0b100000: 0b000001,
		0b000001: 0b000010,
		0b110101: 0b101011,
	}
	for src, want := range cases {
		if got := p.Dest(src, nil); got != want {
			t.Errorf("shuffle(%06b) = %06b, want %06b", src, got, want)
		}
	}
}

func TestBitReverse(t *testing.T) {
	p := MustNew(BitReverse, 64)
	if got := p.Dest(0b000011, nil); got != 0b110000 {
		t.Errorf("bitreverse(000011) = %06b, want 110000", got)
	}
}

func TestTranspose(t *testing.T) {
	p := MustNew(Transpose, 64)
	if got := p.Dest(0b000111, nil); got != 0b111000 {
		t.Errorf("transpose(000111) = %06b, want 111000", got)
	}
}

func TestTornadoAndNeighbor(t *testing.T) {
	tor := MustNew(Tornado, 8)
	if got := tor.Dest(0, nil); got != 3 {
		t.Errorf("tornado(0) in 8 nodes = %d, want 3", got)
	}
	nb := MustNew(Neighbor, 8)
	if got := nb.Dest(7, nil); got != 0 {
		t.Errorf("neighbor(7) = %d, want 0", got)
	}
}

// Property: every deterministic bit pattern is a permutation (bijective)
// over the node set.
func TestBitPatternsArePermutations(t *testing.T) {
	for _, name := range []string{Complement, Butterfly, Shuffle, Transpose, BitReverse, Tornado, Neighbor} {
		for _, n := range []int{4, 8, 16, 64, 256} {
			p := MustNew(name, n)
			seen := make([]bool, n)
			for src := 0; src < n; src++ {
				d := p.Dest(src, nil)
				if d < 0 || d >= n {
					t.Fatalf("%s(%d) = %d out of range (n=%d)", name, src, d, n)
				}
				if seen[d] {
					t.Fatalf("%s over %d nodes is not a bijection: %d hit twice", name, n, d)
				}
				seen[d] = true
			}
		}
	}
}

func TestUniformExcludesSelfAndCoversAll(t *testing.T) {
	p := MustNew(Uniform, 16)
	s := rng.New(1)
	counts := make([]int, 16)
	const draws = 160000
	for i := 0; i < draws; i++ {
		d := p.Dest(5, s)
		if d == 5 {
			t.Fatal("uniform returned self")
		}
		counts[d]++
	}
	for d, c := range counts {
		if d == 5 {
			continue
		}
		want := draws / 15
		if math.Abs(float64(c-want)) > 0.1*float64(want) {
			t.Fatalf("uniform dest %d drawn %d times, want ~%d", d, c, want)
		}
	}
}

func TestHotspotFraction(t *testing.T) {
	h := NewHotspot(16, 3, 0.25)
	s := rng.New(2)
	hot := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if h.Dest(0, s) == 3 {
			hot++
		}
	}
	// hot receives 25% + uniform share of the remaining 75%.
	want := 0.25 + 0.75/15
	if got := float64(hot) / draws; math.Abs(got-want) > 0.01 {
		t.Fatalf("hotspot rate = %v, want ~%v", got, want)
	}
	// The hot node itself never self-targets.
	for i := 0; i < 1000; i++ {
		if h.Dest(3, s) == 3 {
			t.Fatal("hotspot returned self for hot node")
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Complement, 48); err == nil {
		t.Error("complement over non-power-of-two did not error")
	}
	if _, err := New("nosuch", 64); err == nil {
		t.Error("unknown pattern did not error")
	}
	if _, err := New(Uniform, 1); err == nil {
		t.Error("single-node system did not error")
	}
	if _, err := New(Uniform, 48); err != nil {
		t.Errorf("uniform over 48 nodes errored: %v", err)
	}
	if _, err := New(Tornado, 48); err != nil {
		t.Errorf("tornado over 48 nodes errored: %v", err)
	}
}

func TestAllNamesConstructible(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name, 64)
		if err != nil {
			t.Errorf("New(%q, 64) error: %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("pattern %q reports name %q", name, p.Name())
		}
	}
	if len(PaperNames()) != 4 {
		t.Errorf("PaperNames = %v, want 4 patterns", PaperNames())
	}
}

func TestInjectorRate(t *testing.T) {
	master := rng.New(7)
	p := MustNew(Uniform, 64)
	in := NewInjector(0, 0.02, p, master)
	injected := 0
	const cycles = 200000
	for i := 0; i < cycles; i++ {
		if _, ok := in.Step(); ok {
			injected++
		}
	}
	got := float64(injected) / cycles
	if math.Abs(got-0.02) > 0.002 {
		t.Fatalf("injection rate = %v, want ~0.02", got)
	}
}

func TestInjectorDeterministicPerSeed(t *testing.T) {
	run := func() []int {
		master := rng.New(99)
		in := NewInjector(3, 0.5, MustNew(Uniform, 16), master)
		var dests []int
		for i := 0; i < 100; i++ {
			if d, ok := in.Step(); ok {
				dests = append(dests, d)
			}
		}
		return dests
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic injector")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic injector destinations")
		}
	}
}

func TestInjectorsIndependentAcrossNodes(t *testing.T) {
	master := rng.New(5)
	a := NewInjector(0, 1.0, MustNew(Uniform, 64), master)
	bInj := NewInjector(1, 1.0, MustNew(Uniform, 64), master)
	same := 0
	for i := 0; i < 100; i++ {
		da, _ := a.Step()
		db, _ := bInj.Step()
		if da == db {
			same++
		}
	}
	if same > 20 {
		t.Fatalf("injectors for different nodes correlated: %d/100 equal draws", same)
	}
}

func TestInjectorRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewInjector(rate>1) did not panic")
		}
	}()
	NewInjector(0, 1.5, MustNew(Uniform, 4), rng.New(1))
}

func TestInjectorSkipsSelfFixedPoints(t *testing.T) {
	// Butterfly has fixed points (msb==lsb). With SkipSelf the injector
	// must never emit src->src.
	master := rng.New(3)
	in := NewInjector(0b100001, 1.0, MustNew(Butterfly, 64), master)
	for i := 0; i < 100; i++ {
		if _, ok := in.Step(); ok {
			t.Fatal("injector emitted a self-addressed packet")
		}
	}
}

// Property: uniform destination distribution is supported on [0,n)\{src}.
func TestUniformSupportProperty(t *testing.T) {
	s := rng.New(11)
	f := func(nRaw, srcRaw uint8) bool {
		n := int(nRaw%62) + 2
		src := int(srcRaw) % n
		p := MustNew(Uniform, n)
		for i := 0; i < 50; i++ {
			d := p.Dest(src, s)
			if d < 0 || d >= n || d == src {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPatternDest(b *testing.B) {
	s := rng.New(1)
	for _, name := range Names() {
		p := MustNew(name, 64)
		b.Run(name, func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += p.Dest(i%64, s)
			}
			_ = sink
		})
	}
}

func BenchmarkInjectorStep(b *testing.B) {
	in := NewInjector(0, 0.02, MustNew(Uniform, 64), rng.New(1))
	n := 0
	for i := 0; i < b.N; i++ {
		if _, ok := in.Step(); ok {
			n++
		}
	}
	_ = n
}

func TestBurstyMeanRate(t *testing.T) {
	master := rng.New(31)
	b := NewBurstyInjector(0, 0.02, 0.25, 500, MustNew(Uniform, 64), master)
	injected := 0
	const cycles = 400000
	for i := 0; i < cycles; i++ {
		if _, ok := b.Step(); ok {
			injected++
		}
	}
	got := float64(injected) / cycles
	if math.Abs(got-0.02) > 0.004 {
		t.Fatalf("bursty mean rate = %v, want ~0.02", got)
	}
}

func TestBurstyIsBurstier(t *testing.T) {
	// Count injections per 200-cycle window: the bursty source must have a
	// higher window-count variance than Bernoulli at equal mean.
	master := rng.New(32)
	bern := NewInjector(0, 0.05, MustNew(Uniform, 64), master)
	burst := NewBurstyInjector(1, 0.05, 0.2, 400, MustNew(Uniform, 64), master)
	variance := func(step func() bool) float64 {
		const windows, win = 300, 200
		var sum, sum2 float64
		for w := 0; w < windows; w++ {
			c := 0.0
			for i := 0; i < win; i++ {
				if step() {
					c++
				}
			}
			sum += c
			sum2 += c * c
		}
		mean := sum / windows
		return sum2/windows - mean*mean
	}
	vb := variance(func() bool { _, ok := bern.Step(); return ok })
	vu := variance(func() bool { _, ok := burst.Step(); return ok })
	if vu < 2*vb {
		t.Fatalf("bursty window variance %v not clearly above Bernoulli %v", vu, vb)
	}
}

func TestBurstyValidation(t *testing.T) {
	master := rng.New(1)
	p := MustNew(Uniform, 8)
	for name, fn := range map[string]func(){
		"mean>1":  func() { NewBurstyInjector(0, 1.5, 0.5, 100, p, master) },
		"duty=0":  func() { NewBurstyInjector(0, 0.1, 0, 100, p, master) },
		"burst<1": func() { NewBurstyInjector(0, 0.1, 0.5, 0.5, p, master) },
		"pOn>1":   func() { NewBurstyInjector(0, 0.6, 0.5, 100, p, master) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestInjectorImplementsSource(t *testing.T) {
	var _ Source = NewInjector(0, 0.1, MustNew(Uniform, 8), rng.New(1))
	var _ Source = NewBurstyInjector(0, 0.1, 0.5, 100, MustNew(Uniform, 8), rng.New(1))
}

// twin returns an independent copy of s in its current state.
func twin(s Source) Source {
	switch v := s.(type) {
	case *Injector:
		c, st := *v, *v.rng
		c.rng = &st
		return &c
	case *BurstyInjector:
		c, st := *v, *v.rng
		c.rng = &st
		return &c
	}
	panic("traffic: unknown source")
}

// sameState reports whether a and b will draw the same future.
func sameState(a, b Source) bool {
	switch v := a.(type) {
	case *Injector:
		return *v.rng == *b.(*Injector).rng
	case *BurstyInjector:
		w := b.(*BurstyInjector)
		return *v.rng == *w.rng && v.on == w.on
	}
	return false
}

// TestNextMatchesStep pins the draw-ahead contract: Next(h) ends where k
// Steps end and reports the k-th Step's packet, with no packet before it;
// Rewind(n) ends where n Steps from Next's starting point end. Rates 0
// and 1 draw nothing per Bernoulli; 1e-9 misses the horizon; transpose
// has fixed points (node 9 of 64), so SkipSelf consumes hits.
func TestNextMatchesStep(t *testing.T) {
	p := MustNew(Transpose, 64)
	for _, rate := range []float64{0, 1e-9, 0.0125, 0.5, 1} {
		for _, src := range []int{5, 9} {
			for _, s := range []Source{
				NewInjector(src, rate, p, rng.New(21)),
				NewBurstyInjector(src, rate/2, 0.5, 30, p, rng.New(21)),
			} {
				for rep := uint64(0); rep < 300; rep++ {
					h := uint64(4096)
					if rep%3 == 1 {
						h = rep%7 + 1
					}
					mark, ref := twin(s), twin(s)
					k, dst, ok := s.Next(h)
					if k < 1 || k > h || (!ok && k != h) {
						t.Fatalf("rate %v src %d: Next(%d) = (%d, %d, %v)", rate, src, h, k, dst, ok)
					}
					for i := uint64(1); i <= k; i++ {
						d, inj := ref.Step()
						if i < k && inj {
							t.Fatalf("rate %v src %d %T: Step %d of %d injected before Next's packet", rate, src, s, i, k)
						}
						if i == k && (inj != ok || inj && d != dst) {
							t.Fatalf("rate %v src %d %T: Step %d = (%d, %v), Next = (%d, %v)", rate, src, s, k, d, inj, dst, ok)
						}
					}
					if !sameState(s, ref) {
						t.Fatalf("rate %v src %d %T: Next(%d) and %d Steps leave different streams", rate, src, s, h, k)
					}
					n := rep % (k + 1)
					for range n {
						mark.Step()
					}
					s.Rewind(n)
					if !sameState(s, mark) {
						t.Fatalf("rate %v src %d %T: Rewind(%d) differs from %d Steps after the mark", rate, src, s, n, n)
					}
				}
			}
		}
	}
}
