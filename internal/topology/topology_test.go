package topology

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		b, d int
		ok   bool
	}{
		{4, 4, true},
		{8, 8, true},
		{1, 4, false},
		{4, 0, false},
	}
	for _, c := range cases {
		_, err := NewSRS(c.b, c.d)
		if (err == nil) != c.ok {
			t.Errorf("NewSRS(%d,%d) error = %v, want ok=%v", c.b, c.d, err, c.ok)
		}
	}
}

func TestNewSRSValidation(t *testing.T) {
	cases := []struct {
		b, d int
		ok   bool
	}{
		{4, 4, true},
		{8, 8, true},
		{2, 1, true},
		{1, 4, false},
		{4, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		top, err := NewSRS(c.b, c.d)
		if (err == nil) != c.ok {
			t.Errorf("NewSRS(%d,%d) error = %v, want ok=%v", c.b, c.d, err, c.ok)
		}
		if err == nil && top.TotalNodes() != c.b*c.d {
			t.Errorf("NewSRS(%d,%d).TotalNodes() = %d, want %d", c.b, c.d, top.TotalNodes(), c.b*c.d)
		}
	}
}

func TestPaperWavelengthExamples(t *testing.T) {
	// Paper Sec 2.1, R(1,4,4): board 1 -> board 0 uses λ1^(1); the reverse,
	// board 0 -> board 1, uses λ3^(0).
	top := MustNewSRS(4, 4)
	if w := top.Wavelength(1, 0); w != 1 {
		t.Errorf("Wavelength(1,0) = %d, want 1", w)
	}
	if w := top.Wavelength(0, 1); w != 3 {
		t.Errorf("Wavelength(0,1) = %d, want 3", w)
	}
	// Sec 2.2 example: static wavelength for board 0 -> board 2 is λ2.
	if w := top.Wavelength(0, 2); w != 2 {
		t.Errorf("Wavelength(0,2) = %d, want 2", w)
	}
}

func TestWavelengthMatchesPaperPiecewiseForm(t *testing.T) {
	// The paper defines w = B-(d-s) if d > s, w = s-d if s > d. Check our
	// single modular formula agrees on every pair for several sizes.
	for _, b := range []int{2, 3, 4, 8, 16} {
		top := MustNewSRS(b, 1)
		for s := 0; s < b; s++ {
			for d := 0; d < b; d++ {
				if s == d {
					continue
				}
				want := s - d
				if d > s {
					want = b - (d - s)
				}
				if got := top.Wavelength(s, d); got != want {
					t.Fatalf("B=%d Wavelength(%d,%d) = %d, want %d", b, s, d, got, want)
				}
			}
		}
	}
}

func TestWavelengthNeverZeroAndUniquePerDestination(t *testing.T) {
	// RWA invariant: for a fixed destination d, the B-1 sources use B-1
	// distinct wavelengths, none of them 0 — that is what makes the
	// passively-coupled SRS collision-free under static allocation.
	for _, b := range []int{2, 4, 8, 12} {
		top := MustNewSRS(b, 4)
		for d := 0; d < b; d++ {
			seen := map[int]int{}
			for s := 0; s < b; s++ {
				if s == d {
					continue
				}
				w := top.Wavelength(s, d)
				if w == 0 {
					t.Fatalf("B=%d: Wavelength(%d,%d) = 0", b, s, d)
				}
				if prev, dup := seen[w]; dup {
					t.Fatalf("B=%d: wavelength %d into board %d assigned to both %d and %d", b, w, d, prev, s)
				}
				seen[w] = s
			}
			if len(seen) != b-1 {
				t.Fatalf("B=%d: board %d receives %d wavelengths, want %d", b, d, len(seen), b-1)
			}
		}
	}
}

func TestStaticOwnerInvertsWavelength(t *testing.T) {
	f := func(bRaw, dRaw, wRaw uint8) bool {
		b := int(bRaw%14) + 2
		top := MustNewSRS(b, 2)
		d := int(dRaw) % b
		w := int(wRaw)%(b-1) + 1
		s := top.StaticOwner(d, w)
		return s != d && top.Wavelength(s, d) == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeAddressing(t *testing.T) {
	top := MustNewSRS(8, 8)
	if top.TotalNodes() != 64 {
		t.Fatalf("TotalNodes = %d, want 64", top.TotalNodes())
	}
	// Paper Sec 4.2: for 64 nodes, nodes 0..7 are on board 0, node 63 on board 7.
	for n := 0; n < 8; n++ {
		if top.Board(n) != 0 {
			t.Errorf("Board(%d) = %d, want 0", n, top.Board(n))
		}
	}
	if top.Board(63) != 7 {
		t.Errorf("Board(63) = %d, want 7", top.Board(63))
	}
	if top.Local(63) != 7 {
		t.Errorf("Local(63) = %d, want 7", top.Local(63))
	}
}

func TestNodeIDRoundTrip(t *testing.T) {
	f := func(bRaw, dRaw uint8) bool {
		top := MustNewSRS(6, 5)
		b := int(bRaw) % 6
		l := int(dRaw) % 5
		n := top.NodeID(b, l)
		return top.Board(n) == b && top.Local(n) == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPanics(t *testing.T) {
	top := MustNewSRS(4, 4)
	for name, fn := range map[string]func(){
		"wavelength-self": func() { top.Wavelength(2, 2) },
		"wavelength-oob":  func() { top.Wavelength(4, 0) },
		"owner-w0":        func() { top.StaticOwner(1, 0) },
		"owner-w-oob":     func() { top.StaticOwner(1, 4) },
		"board-oob":       func() { top.Board(16) },
		"node-id-oob":     func() { top.NodeID(4, 0) },
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

func TestStringNotation(t *testing.T) {
	if s := MustNewSRS(4, 4).String(); s != "R(1,4,4)" {
		t.Errorf("String() = %q, want R(1,4,4)", s)
	}
}

func TestWavelengthsCount(t *testing.T) {
	if w := MustNewSRS(8, 8).Wavelengths(); w != 7 {
		t.Errorf("Wavelengths() = %d, want 7", w)
	}
}

func BenchmarkWavelengthAssignment(b *testing.B) {
	top := MustNewSRS(8, 8)
	var sink int
	for i := 0; i < b.N; i++ {
		s := i % 8
		d := (i + 3) % 8
		if s != d {
			sink += top.Wavelength(s, d)
		}
	}
	_ = sink
}
