package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPaperLadderMatchesTable1(t *testing.T) {
	l := PaperLadder()
	if l.Top() != 3 || l.Bottom() != 1 {
		t.Fatalf("paper ladder shape: top=%d bottom=%d", l.Top(), l.Bottom())
	}
	for i, lev := range []Level{Low, Mid, High} {
		p := l.Point(i + 1)
		if p != Table1[lev] {
			t.Errorf("ladder level %d = %+v, want Table1[%v]", i+1, p, lev)
		}
	}
	if l.MW(0) != 0 || l.Gbps(0) != 0 {
		t.Error("Off level not zero")
	}
}

func TestLadderSerializationMatchesLevelBased(t *testing.T) {
	// Reference: ceil(bits / (Gbps × cycle ns)) straight from Table 1.
	l := PaperLadder()
	for i, lev := range []Level{Low, Mid, High} {
		a := l.SerializationCycles(512, i+1, 2.5)
		b := uint64(math.Ceil(512 / (Table1[lev].Gbps * 2.5)))
		if a != b {
			t.Errorf("ladder vs level serialization differ at %v: %d vs %d", lev, a, b)
		}
	}
}

func TestLadderUpDown(t *testing.T) {
	l := PaperLadder()
	if l.Up(0) != 1 || l.Up(1) != 2 || l.Up(3) != 3 {
		t.Error("Up transitions wrong")
	}
	if l.Down(3) != 2 || l.Down(1) != 1 {
		t.Error("Down transitions wrong")
	}
	if !l.Operating(1) || !l.Operating(3) || l.Operating(0) || l.Operating(4) {
		t.Error("Operating classification wrong")
	}
	if !l.Valid(0) || !l.Valid(3) || l.Valid(4) || l.Valid(-1) {
		t.Error("Valid classification wrong")
	}
}

func TestInterpolatedLadderEndpoints(t *testing.T) {
	for _, n := range []int{2, 3, 5, 9} {
		l, err := InterpolatedLadder(n)
		if err != nil {
			t.Fatal(err)
		}
		if l.Top() != n {
			t.Fatalf("n=%d: got %d levels", n, l.Top())
		}
		bot, top := l.Point(1), l.Point(l.Top())
		if bot.Gbps != 2.5 || bot.VDD != 0.45 || bot.TotalMW != 8.6 {
			t.Errorf("n=%d: bottom = %+v, want the paper's Low point", n, bot)
		}
		if top.Gbps != 5.0 || top.VDD != 0.90 || top.TotalMW != 43.03 {
			t.Errorf("n=%d: top = %+v, want the paper's High point", n, top)
		}
	}
}

func TestInterpolatedLadderMonotone(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%15) + 2
		l, err := InterpolatedLadder(n)
		if err != nil {
			return false
		}
		for i := 2; i <= l.Top(); i++ {
			a, b := l.Point(i-1), l.Point(i)
			if b.Gbps <= a.Gbps || b.VDD <= a.VDD || b.TotalMW <= a.TotalMW {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInterpolatedLadderIntermediatePower(t *testing.T) {
	// A middle point's power must follow the analytic component model.
	l, err := InterpolatedLadder(3)
	if err != nil {
		t.Fatal(err)
	}
	mid := l.Point(2)
	if math.Abs(mid.Gbps-3.75) > 1e-9 || math.Abs(mid.VDD-0.675) > 1e-9 {
		t.Fatalf("mid point = %+v, want 3.75 Gbps / 0.675 V", mid)
	}
	if math.Abs(mid.TotalMW-ScaledMW(mid)) > 1e-9 {
		t.Fatalf("mid power %v != component model %v", mid.TotalMW, ScaledMW(mid))
	}
}

func TestNewLadderValidation(t *testing.T) {
	if _, err := NewLadder(nil); err == nil {
		t.Error("empty ladder accepted")
	}
	// Non-ascending bit rate.
	if _, err := NewLadder([]Point{{Gbps: 5, VDD: 0.9, TotalMW: 43}, {Gbps: 2.5, VDD: 0.45, TotalMW: 8.6}}); err == nil {
		t.Error("descending ladder accepted")
	}
	// Non-ascending power.
	if _, err := NewLadder([]Point{{Gbps: 2.5, VDD: 0.45, TotalMW: 43}, {Gbps: 5, VDD: 0.9, TotalMW: 8.6}}); err == nil {
		t.Error("power-inverted ladder accepted")
	}
	if _, err := InterpolatedLadder(1); err == nil {
		t.Error("1-level interpolated ladder accepted")
	}
}

func TestLadderPanicsOutOfRange(t *testing.T) {
	l := PaperLadder()
	for name, fn := range map[string]func(){
		"MW":   func() { l.MW(4) },
		"Gbps": func() { l.Gbps(-1) },
		"ser":  func() { l.SerializationCycles(512, 0, 2.5) },
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
