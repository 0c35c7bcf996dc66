package power

import "fmt"

// Ladder is an ordered set of link operating points: index 0 is Off and
// indices 1..Top() are operating points in ascending bit-rate order. The
// paper evaluates a 3-level ladder (2.5/3.3/5 Gbps) and names
// "more power levels and corresponding bit rates" as future work; the
// ladder generalizes the DPM machinery to arbitrary level counts so that
// hypothesis can be tested (see BenchmarkAblationPowerLevels).
type Ladder struct {
	pts []Point // pts[0] = Off
}

// NewLadder builds a ladder from operating points (Off is implicit and
// must not be included). Points must be strictly ascending in bit rate,
// voltage and power.
func NewLadder(points []Point) (*Ladder, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("power: ladder needs at least one operating point")
	}
	prev := Point{}
	for i, p := range points {
		if p.Gbps <= prev.Gbps || p.VDD <= prev.VDD || p.TotalMW <= prev.TotalMW {
			return nil, fmt.Errorf("power: ladder point %d (%+v) not strictly above %+v", i, p, prev)
		}
		prev = p
	}
	l := &Ladder{pts: make([]Point, 1, len(points)+1)}
	l.pts = append(l.pts, points...)
	return l, nil
}

// PaperLadder returns the paper's three operating points (Table 1).
func PaperLadder() *Ladder {
	l, err := NewLadder([]Point{Table1[Low], Table1[Mid], Table1[High]})
	if err != nil {
		panic(err)
	}
	return l
}

// InterpolatedLadder returns n operating points spanning the paper's
// range (2.5 Gbps/0.45 V up to 5 Gbps/0.9 V), with bit rate and voltage
// interpolated linearly and power derived from the analytic component
// model. n must be at least 2; the endpoints always coincide with the
// paper's Low and High points.
func InterpolatedLadder(n int) (*Ladder, error) {
	if n < 2 {
		return nil, fmt.Errorf("power: interpolated ladder needs >= 2 levels, got %d", n)
	}
	lo, hi := Table1[Low], Table1[High]
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n-1)
		p := Point{
			Gbps: lo.Gbps + float64(f*(hi.Gbps-lo.Gbps)),
			VDD:  lo.VDD + float64(f*(hi.VDD-lo.VDD)),
		}
		p.TotalMW = ScaledMW(p)
		pts[i] = p
	}
	// Pin the endpoints to the published totals so a 2-point ladder is
	// exactly {Low, High}.
	pts[0].TotalMW = lo.TotalMW
	pts[n-1].TotalMW = hi.TotalMW
	return NewLadder(pts)
}

// Top returns the highest operating level index.
func (l *Ladder) Top() int { return len(l.pts) - 1 }

// Bottom returns the lowest operating level index (1).
func (l *Ladder) Bottom() int { return 1 }

// Operating reports whether level i carries traffic.
func (l *Ladder) Operating(i int) bool { return i >= 1 && i < len(l.pts) }

// Valid reports whether i is a representable level (Off or operating).
func (l *Ladder) Valid(i int) bool { return i >= 0 && i < len(l.pts) }

// Point returns the operating point at level i.
func (l *Ladder) Point(i int) Point {
	l.check(i)
	return l.pts[i]
}

// MW returns the whole-link power at level i (0 for Off).
func (l *Ladder) MW(i int) float64 {
	l.check(i)
	return l.pts[i].TotalMW
}

// Gbps returns the line rate at level i (0 for Off).
func (l *Ladder) Gbps(i int) float64 {
	l.check(i)
	return l.pts[i].Gbps
}

// Up returns the next higher level, saturating at Top. Off steps to
// Bottom.
func (l *Ladder) Up(i int) int {
	l.check(i)
	if i >= l.Top() {
		return l.Top()
	}
	return i + 1
}

// Down returns the next lower operating level, saturating at Bottom
// (links leave the ladder only through the explicit shutdown path).
func (l *Ladder) Down(i int) int {
	l.check(i)
	if i <= 1 {
		return 1
	}
	return i - 1
}

// SerializationCycles returns how many router cycles a packet of the
// given size occupies a link at level i. It panics for Off.
func (l *Ladder) SerializationCycles(packetBits, i int, cycleNS float64) uint64 {
	if !l.Operating(i) {
		panic(fmt.Sprintf("power: serialization at non-operating ladder level %d", i))
	}
	bitsPerCycle := l.pts[i].Gbps * cycleNS
	cycles := float64(packetBits) / bitsPerCycle
	n := uint64(cycles)
	if float64(n) < cycles {
		n++
	}
	if n == 0 {
		n = 1
	}
	return n
}

func (l *Ladder) check(i int) {
	if !l.Valid(i) {
		panic(fmt.Sprintf("power: ladder level %d out of [0,%d]", i, l.Top()))
	}
}
