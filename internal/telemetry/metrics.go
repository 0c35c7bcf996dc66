package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64, safe for concurrent
// use (`erapid sweep` increments one from several worker
// goroutines).
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1 and returns the new value.
func (c *Counter) Inc() uint64 { return c.v.Add(1) }

// Add adds delta to the counter.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds delta (which may be negative) to the gauge.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// TimeSeries is a bounded ring of float64 samples, one per
// reconfiguration window. When full it overwrites the oldest sample;
// WindowMarks in the owning Registry keep the retained windows aligned
// across all series.
type TimeSeries struct {
	name string
	unit string
	ring []float64
	next int
	full bool
}

// Name returns the series name (e.g. "board3/supply_mw").
func (t *TimeSeries) Name() string { return t.name }

// Unit returns the unit label (e.g. "mW", "pkt/cycle", "").
func (t *TimeSeries) Unit() string { return t.unit }

// Push appends one per-window sample.
func (t *TimeSeries) Push(v float64) {
	t.ring[t.next] = v
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
}

// Len returns the number of retained samples.
func (t *TimeSeries) Len() int {
	if t.full {
		return len(t.ring)
	}
	return t.next
}

// Values returns the retained samples, oldest first.
func (t *TimeSeries) Values() []float64 {
	if !t.full {
		out := make([]float64, t.next)
		copy(out, t.ring[:t.next])
		return out
	}
	out := make([]float64, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// WindowMark identifies one sampled reconfiguration window.
type WindowMark struct {
	// Index is the window number k (window k spans cycles
	// [k*R_w, (k+1)*R_w)).
	Index uint64
	// EndCycle is the first cycle after the window.
	EndCycle uint64
}

// Registry holds the named metrics of one run: counters, gauges and
// per-window time series. Series are created on first use and share a
// common ring capacity; the collector pushes exactly one sample to
// every series per window, then calls EndWindow, so all series stay
// index-aligned with the retained WindowMarks.
type Registry struct {
	mu       sync.Mutex
	cap      int
	counters map[string]*Counter
	gauges   map[string]*Gauge
	series   map[string]*TimeSeries
	hists    map[string]*Histogram
	help     map[string]string // metric family → HELP text (Prometheus)
	order    []string          // series creation order, for stable output
	marks    []WindowMark
	markNext int
	markFull bool
}

// NewRegistry creates a registry whose time series retain up to
// seriesCap windows each.
func NewRegistry(seriesCap int) *Registry {
	if seriesCap < 1 {
		panic(fmt.Sprintf("telemetry: series capacity %d < 1", seriesCap))
	}
	return &Registry{
		cap:      seriesCap,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		series:   make(map[string]*TimeSeries),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
		marks:    make([]WindowMark, seriesCap),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds if needed. The buckets of an existing histogram
// are not changed; bounds must be sorted ascending.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// SetHelp records the Prometheus HELP text for a metric family (the
// name before any label block). WritePrometheus emits it; families
// without help get only a TYPE line.
func (r *Registry) SetHelp(family, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[family] = text
}

// Series returns the named time series, creating it (with the given
// unit) if needed. The unit of an existing series is not changed.
func (r *Registry) Series(name, unit string) *TimeSeries {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.series[name]
	if t == nil {
		t = &TimeSeries{name: name, unit: unit, ring: make([]float64, r.cap)}
		r.series[name] = t
		r.order = append(r.order, name)
	}
	return t
}

// EndWindow records that window index (ending at endCycle) has been
// fully sampled. Call it after pushing this window's sample to every
// series.
func (r *Registry) EndWindow(index, endCycle uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.marks[r.markNext] = WindowMark{Index: index, EndCycle: endCycle}
	r.markNext++
	if r.markNext == len(r.marks) {
		r.markNext = 0
		r.markFull = true
	}
}

// Windows returns the retained window marks, oldest first.
func (r *Registry) Windows() []WindowMark {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.markFull {
		out := make([]WindowMark, r.markNext)
		copy(out, r.marks[:r.markNext])
		return out
	}
	out := make([]WindowMark, 0, len(r.marks))
	out = append(out, r.marks[r.markNext:]...)
	out = append(out, r.marks[:r.markNext]...)
	return out
}

// SeriesNames returns the series names in creation order.
func (r *Registry) SeriesNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Lookup returns the named series, or nil.
func (r *Registry) Lookup(name string) *TimeSeries {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.series[name]
}

// appendFloat writes v in the shortest round-trippable form.
func appendFloat(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendFloat(b, v, 'f', -1, 64)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// WriteMetricsJSONL dumps the registry as JSON Lines:
//
//	{"type":"meta","series":[{"name":...,"unit":...},...]}
//	{"type":"window","index":k,"end_cycle":c,"values":[...]}   (one per retained window)
//	{"type":"counters", "<name>":v, ...}
//	{"type":"gauges", "<name>":v, ...}
//
// The values array of each window line is ordered like the meta series
// list (creation order), so the file is self-describing and
// deterministic for a deterministic run.
func (r *Registry) WriteMetricsJSONL(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	series := make([]*TimeSeries, len(names))
	for i, n := range names {
		series[i] = r.series[n]
	}
	counters := make(map[string]uint64, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c.Value()
	}
	gauges := make(map[string]float64, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g.Value()
	}
	r.mu.Unlock()

	marks := r.Windows()
	values := make([][]float64, len(series))
	for i, s := range series {
		values[i] = s.Values()
	}

	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 256)

	buf = append(buf, `{"type":"meta","series":[`...)
	for i, s := range series {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"name":`...)
		buf = strconv.AppendQuote(buf, s.Name())
		buf = append(buf, `,"unit":`...)
		buf = strconv.AppendQuote(buf, s.Unit())
		buf = append(buf, '}')
	}
	buf = append(buf, "]}\n"...)
	if _, err := bw.Write(buf); err != nil {
		return err
	}

	for wi, mark := range marks {
		buf = buf[:0]
		buf = append(buf, `{"type":"window","index":`...)
		buf = strconv.AppendUint(buf, mark.Index, 10)
		buf = append(buf, `,"end_cycle":`...)
		buf = strconv.AppendUint(buf, mark.EndCycle, 10)
		buf = append(buf, `,"values":[`...)
		for si := range series {
			if si > 0 {
				buf = append(buf, ',')
			}
			// Series and marks are pushed in lockstep, so the rings
			// retain the same windows; guard anyway for partial pushes.
			if wi < len(values[si]) {
				buf = appendFloat(buf, values[si][wi])
			} else {
				buf = append(buf, "null"...)
			}
		}
		buf = append(buf, "]}\n"...)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}

	writeKV := func(typ string, keys []string, emit func([]byte, string) []byte) error {
		sort.Strings(keys)
		buf = buf[:0]
		buf = append(buf, `{"type":`...)
		buf = strconv.AppendQuote(buf, typ)
		for _, k := range keys {
			buf = append(buf, ',')
			buf = strconv.AppendQuote(buf, k)
			buf = append(buf, ':')
			buf = emit(buf, k)
		}
		buf = append(buf, "}\n"...)
		_, err := bw.Write(buf)
		return err
	}
	ckeys := make([]string, 0, len(counters))
	for k := range counters {
		ckeys = append(ckeys, k)
	}
	if err := writeKV("counters", ckeys, func(b []byte, k string) []byte {
		return strconv.AppendUint(b, counters[k], 10)
	}); err != nil {
		return err
	}
	gkeys := make([]string, 0, len(gauges))
	for k := range gauges {
		gkeys = append(gkeys, k)
	}
	if err := writeKV("gauges", gkeys, func(b []byte, k string) []byte {
		return appendFloat(b, gauges[k])
	}); err != nil {
		return err
	}
	return bw.Flush()
}
