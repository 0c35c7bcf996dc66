package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("streams with different seeds matched %d/100 draws", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	base := New(7)
	d1 := base.Derive(1)
	d2 := base.Derive(2)
	d1again := base.Derive(1)
	if d1.Uint64() != d1again.Uint64() {
		t.Fatal("Derive with equal ids produced different streams")
	}
	if d1.Uint64() == d2.Uint64() && d1.Uint64() == d2.Uint64() {
		t.Fatal("Derive with different ids produced equal streams")
	}
	// Deriving must not advance the parent.
	x := base.Uint64()
	base2 := New(7)
	base2.Derive(1)
	base2.Derive(2)
	base2.Derive(1)
	if base2.Uint64() != x {
		t.Fatal("Derive advanced the parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn(7) bucket %d has %d/70000 draws, want ~10000", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	s := New(1)
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			s.Intn(n)
		}()
	}
}

func TestBernoulliProbability(t *testing.T) {
	s := New(9)
	const n = 100000
	for _, p := range []float64{0.0, 0.1, 0.5, 0.9, 1.0} {
		hits := 0
		for i := 0; i < n; i++ {
			if s.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("Bernoulli(%v) rate = %v", p, got)
		}
	}
}

func TestBernoulliClamp(t *testing.T) {
	s := New(1)
	if s.Bernoulli(-0.5) {
		t.Fatal("Bernoulli(-0.5) returned true")
	}
	if !s.Bernoulli(1.5) {
		t.Fatal("Bernoulli(1.5) returned false")
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(13)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		dst := make([]int, n)
		s.Perm(dst)
		seen := make([]bool, n)
		for _, v := range dst {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMixStability(t *testing.T) {
	if Mix(1, 2, 3) != Mix(1, 2, 3) {
		t.Fatal("Mix is not a pure function")
	}
	if Mix(1, 2, 3) == Mix(3, 2, 1) {
		t.Fatal("Mix ignores argument order")
	}
}

func TestUint64nNoModuloBiasSmoke(t *testing.T) {
	s := New(23)
	// n just above a power of two is where modulo bias is worst.
	const n = (1 << 62) + 3
	for i := 0; i < 1000; i++ {
		if v := s.Uint64n(n); v >= n {
			t.Fatalf("Uint64n(%d) = %d out of range", uint64(n), v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkBernoulli(b *testing.B) {
	s := New(1)
	n := 0
	for i := 0; i < b.N; i++ {
		if s.Bernoulli(0.3) {
			n++
		}
	}
	_ = n
}

// TestThresholdBoundary checks the integer cut against Float64's
// comparison at the 53-bit values around p·2^53, where a ceiling taken
// as a floor (or an off-by-one) would flip the answer. Random draws land
// there with probability 2^-52 and cannot catch it.
func TestThresholdBoundary(t *testing.T) {
	for _, p := range []float64{0x1p-53, 0.3, math.Nextafter(0.3, 0), 0.5, 1 - 0x1p-53} {
		thr := Threshold(p)
		u0 := uint64(math.Floor(p * (1 << 53)))
		for _, u := range []uint64{u0 - 1, u0, u0 + 1} {
			if u >= 1<<53 {
				continue // u0 - 1 wrapped below 0, or u0 + 1 past the top
			}
			want := float64(u)/(1<<53) < p
			if got := u < thr; got != want {
				t.Errorf("p=%v u=%d: u < Threshold(p)=%d is %v, Float64 comparison %v", p, u, thr, got, want)
			}
		}
	}
}

// TestUntilMatchesBernoulli: Until stops where a loop of Bernoulli(p)
// draws first hits and leaves the stream where that loop leaves it, both
// on a hit and when n runs out first.
func TestUntilMatchesBernoulli(t *testing.T) {
	for _, p := range []float64{1e-9, 0.01, 0.3, 0.9} {
		for _, n := range []uint64{1, 7, 300, 1 << 16} {
			a, b := New(99), New(99)
			for rep := 0; rep < 20; rep++ {
				k, hit := a.Until(Threshold(p), n)
				var wk uint64
				whit := false
				for wk < n && !whit {
					wk++
					whit = b.Bernoulli(p)
				}
				if k != wk || hit != whit || a.s != b.s {
					t.Fatalf("p=%v n=%d rep %d: Until = (%d, %v), Bernoulli loop = (%d, %v), states equal %v", p, n, rep, k, hit, wk, whit, a.s == b.s)
				}
			}
		}
	}
}
