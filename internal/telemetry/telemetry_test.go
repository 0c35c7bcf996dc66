package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// updateGolden regenerates golden files instead of comparing against
// them: go test ./internal/telemetry -run TestJSONLGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// sampleEvents covers every kind and every optional-field combination
// exercised by the simulator. The golden file pins the JSONL schema.
func sampleEvents() []Event {
	return []Event{
		{Cycle: 0, Kind: PhaseChange, Board: -1, Wavelength: -1, Dest: -1, Label: "warmup"},
		{Cycle: 12, Kind: PacketInject, Packet: 1, Board: 0, Wavelength: -1, Dest: -1},
		{Cycle: 14, Kind: PacketNetEnter, Packet: 1, Board: 0, Wavelength: -1, Dest: -1},
		{Cycle: 30, Kind: PacketLaserEnqueue, Packet: 1, Board: 0, Wavelength: 3, Dest: 5},
		{Cycle: 33, Kind: PacketLaserTransmit, Packet: 1, Board: 0, Wavelength: 3, Dest: 5},
		{Cycle: 96, Kind: PacketOpticalArrive, Packet: 1, Board: 0, Wavelength: 3, Dest: 5},
		{Cycle: 120, Kind: PacketDeliver, Packet: 1, Board: 5, Wavelength: -1, Dest: -1},
		{Cycle: 2000, Kind: StageEnter, Board: 2, Wavelength: -1, Dest: -1, Label: "power-request"},
		{Cycle: 2010, Kind: LaserLevel, Board: 2, Wavelength: 1, Dest: 4, From: 3, To: 1},
		{Cycle: 2011, Kind: LaserLevel, Board: 2, Wavelength: 2, Dest: 6, From: 0, To: 2},
		{Cycle: 4000, Kind: ChannelReassign, Board: 7, Wavelength: 5, Dest: 3, From: 1, To: 7},
		{Cycle: 5000, Kind: LaserFail, Board: 1, Wavelength: 2, Dest: 3, Label: "kill"},
		{Cycle: 5100, Kind: LaserFail, Board: 4, Wavelength: 1, Dest: 5, Label: "degrade"},
		{Cycle: 5200, Kind: LaserRestore, Board: 4, Wavelength: 1, Dest: 5, Label: "restore"},
		{Cycle: 5300, Kind: CtrlDrop, Board: 2, Wavelength: -1, Dest: 3, Label: "outage"},
		{Cycle: 5310, Kind: CtrlDelay, Board: 6, Wavelength: -1, Dest: 7},
		{Cycle: 5400, Kind: PacketDropFault, Packet: 9, Board: 1, Wavelength: -1, Dest: 3},
		{Cycle: 20000, Kind: PhaseChange, Board: -1, Wavelength: -1, Dest: -1, Label: "measure"},
	}
}

func encodeJSONL(evs []Event) []byte {
	var out bytes.Buffer
	j := NewJSONL(&out)
	for _, ev := range evs {
		j.Emit(ev)
	}
	if err := j.Flush(); err != nil {
		panic(err)
	}
	return out.Bytes()
}

// TestJSONLGolden pins the event schema byte-for-byte. Regenerate with
// -update after an intentional schema change.
func TestJSONLGolden(t *testing.T) {
	got := encodeJSONL(sampleEvents())
	golden := filepath.Join("testdata", "events.golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with go test -run TestJSONLGolden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("JSONL output differs from golden file %s\ngot:\n%swant:\n%s", golden, got, want)
	}
}

// TestJSONLRoundTrip checks that every line is valid JSON and decodes
// back to the original event.
func TestJSONLRoundTrip(t *testing.T) {
	evs := sampleEvents()
	lines := bytes.Split(bytes.TrimSpace(encodeJSONL(evs)), []byte("\n"))
	if len(lines) != len(evs) {
		t.Fatalf("got %d lines, want %d", len(lines), len(evs))
	}
	for i, line := range lines {
		var anything map[string]any
		if err := json.Unmarshal(line, &anything); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		ev, err := ParseEvent(line)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		want := evs[i]
		if !want.Kind.HasTransition() {
			// From/To are omitted on the wire for non-transition kinds.
			want.From, want.To = 0, 0
		}
		if ev != want {
			t.Errorf("line %d round-trip mismatch:\ngot  %+v\nwant %+v", i, ev, want)
		}
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		back, err := KindFromString(name)
		if err != nil {
			t.Fatalf("KindFromString(%q): %v", name, err)
		}
		if back != k {
			t.Errorf("round trip %q: got %d want %d", name, back, k)
		}
	}
	if _, err := KindFromString("nope"); err == nil {
		t.Error("expected error for unknown kind name")
	}
}

func TestRecorderRingAndCounts(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		if i == 3 {
			// Not yet wrapped: everything recorded so far, oldest first.
			if evs := r.Events(); len(evs) != 3 || evs[0].Cycle != 0 || evs[2].Cycle != 2 {
				t.Fatalf("unwrapped ring = %v, want cycles 0..2", evs)
			}
		}
		r.Emit(Event{Cycle: uint64(i), Kind: PacketInject, Board: -1, Wavelength: -1, Dest: -1})
	}
	if got := r.Count(PacketInject); got != 10 {
		t.Errorf("Count = %d, want 10 (overwritten events still counted)", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Cycle != want {
			t.Errorf("event %d cycle = %d, want %d (oldest-first order)", i, ev.Cycle, want)
		}
	}
}

func TestRecorderZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRecorder(0) did not panic")
		}
	}()
	NewRecorder(0)
}

func TestRecorderFilter(t *testing.T) {
	r := NewRecorder(8)
	r.Filter = func(ev Event) bool { return ev.Kind == StageEnter }
	r.Emit(Event{Kind: PacketInject})
	r.Emit(Event{Kind: StageEnter, Label: "complete"})
	if r.Total() != 1 || r.Count(StageEnter) != 1 || r.Count(PacketInject) != 0 {
		t.Errorf("filter leaked: total=%d stage=%d inject=%d",
			r.Total(), r.Count(StageEnter), r.Count(PacketInject))
	}
}

func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Error("empty tee should be nil")
	}
	a, b := NewRecorder(4), NewRecorder(4)
	if got := Tee(a, nil); got != Sink(a) {
		t.Error("single-sink tee should collapse to the sink itself")
	}
	s := Tee(a, b)
	s.Emit(Event{Kind: PacketDeliver})
	if a.Total() != 1 || b.Total() != 1 {
		t.Errorf("tee fan-out failed: a=%d b=%d", a.Total(), b.Total())
	}
}

func TestRecorderEmitNoAllocs(t *testing.T) {
	r := NewRecorder(1 << 10)
	ev := Event{Cycle: 7, Kind: PacketDeliver, Packet: 9, Board: 1, Wavelength: 2, Dest: 3}
	allocs := testing.AllocsPerRun(1000, func() { r.Emit(ev) })
	if allocs != 0 {
		t.Errorf("Recorder.Emit allocates %.1f/op, want 0", allocs)
	}
}

func TestJSONLEmitNoAllocs(t *testing.T) {
	var sinkhole bytes.Buffer
	sinkhole.Grow(1 << 20)
	j := NewJSONL(&sinkhole)
	ev := Event{Cycle: 7, Kind: StageEnter, Board: 1, Wavelength: -1, Dest: -1, Label: "reconfigure"}
	j.Emit(ev) // warm the buffer
	allocs := testing.AllocsPerRun(1000, func() { j.Emit(ev) })
	// bytes.Buffer growth may allocate; everything else must not.
	if allocs > 0.1 {
		t.Errorf("JSONL.Emit allocates %.2f/op, want ~0", allocs)
	}
}

func TestRegistrySeriesRing(t *testing.T) {
	reg := NewRegistry(4)
	s := reg.Series("inject_rate", "pkt/cycle")
	if reg.Series("inject_rate", "ignored") != s {
		t.Fatal("Series should return the existing series")
	}
	for i := 0; i < 6; i++ {
		s.Push(float64(i))
		reg.EndWindow(uint64(i), uint64((i+1)*2000))
	}
	if got := s.Values(); !reflect.DeepEqual(got, []float64{2, 3, 4, 5}) {
		t.Errorf("Values = %v, want [2 3 4 5]", got)
	}
	marks := reg.Windows()
	if len(marks) != 4 || marks[0].Index != 2 || marks[3].EndCycle != 12000 {
		t.Errorf("Windows = %v, want indices 2..5 aligned with series", marks)
	}
}

func TestRegistryCountersGauges(t *testing.T) {
	reg := NewRegistry(4)
	c := reg.Counter("runs_done")
	c.Inc()
	c.Add(2)
	if reg.Counter("runs_done").Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	g := reg.Gauge("load")
	g.Set(0.7)
	if reg.Gauge("load").Value() != 0.7 {
		t.Errorf("gauge = %v, want 0.7", g.Value())
	}
}

func TestWriteMetricsJSONL(t *testing.T) {
	reg := NewRegistry(8)
	a := reg.Series("inject_rate", "pkt/cycle")
	b := reg.Series("board0/supply_mw", "mW")
	for i := 0; i < 3; i++ {
		a.Push(float64(i) * 0.1)
		b.Push(100 + float64(i))
		reg.EndWindow(uint64(i), uint64((i+1)*2000))
	}
	reg.Counter("windows").Add(3)
	reg.Gauge("final_load").Set(0.5)

	var out bytes.Buffer
	if err := reg.WriteMetricsJSONL(&out); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	// meta + 3 windows + counters + gauges
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6:\n%s", len(lines), out.String())
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("line %d invalid JSON: %v\n%s", i, err, line)
		}
	}
	var meta struct {
		Type   string `json:"type"`
		Series []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"series"`
	}
	if err := json.Unmarshal(lines[0], &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Type != "meta" || len(meta.Series) != 2 ||
		meta.Series[0].Name != "inject_rate" || meta.Series[1].Unit != "mW" {
		t.Errorf("bad meta line: %s", lines[0])
	}
	var win struct {
		Type     string    `json:"type"`
		Index    uint64    `json:"index"`
		EndCycle uint64    `json:"end_cycle"`
		Values   []float64 `json:"values"`
	}
	if err := json.Unmarshal(lines[2], &win); err != nil {
		t.Fatal(err)
	}
	if win.Type != "window" || win.Index != 1 || win.EndCycle != 4000 ||
		len(win.Values) != 2 || win.Values[1] != 101 {
		t.Errorf("bad window line: %s", lines[2])
	}
	if !bytes.Contains(lines[4], []byte(`"windows":3`)) {
		t.Errorf("bad counters line: %s", lines[4])
	}
	if !bytes.Contains(lines[5], []byte(`"final_load":0.5`)) {
		t.Errorf("bad gauges line: %s", lines[5])
	}
}

func TestWriteChromeTrace(t *testing.T) {
	reg := NewRegistry(8)
	s := reg.Series("board1/held_channels", "")
	g := reg.Series("inject_rate", "pkt/cycle")
	for i := 0; i < 2; i++ {
		s.Push(float64(3 + i))
		g.Push(0.4)
		reg.EndWindow(uint64(i), uint64((i+1)*2000))
	}
	var out bytes.Buffer
	if err := WriteChromeTrace(&out, sampleEvents(), reg, 2.5, 8); err != nil {
		t.Fatal(err)
	}
	var records []map[string]any
	if err := json.Unmarshal(out.Bytes(), &records); err != nil {
		t.Fatalf("chrome trace is not a valid JSON array: %v\n%s", err, out.String())
	}
	var phases, instants, counters, metas int
	for _, r := range records {
		switch r["ph"] {
		case "M":
			metas++
		case "i":
			instants++
			if name, _ := r["name"].(string); strings.HasPrefix(name, "phase: ") {
				phases++
			}
		case "C":
			counters++
		}
	}
	if metas == 0 || instants == 0 || counters != 4 || phases != 2 {
		t.Errorf("trace composition: metas=%d instants=%d counters=%d phases=%d",
			metas, instants, counters, phases)
	}
	// board1/held_channels must land on pid 2 as "held_channels".
	found := false
	for _, r := range records {
		if r["ph"] == "C" && r["name"] == "held_channels" {
			if pid, _ := r["pid"].(float64); pid != 2 {
				t.Errorf("held_channels on pid %v, want 2", r["pid"])
			}
			found = true
		}
	}
	if !found {
		t.Error("per-board counter track missing")
	}
}

func TestBoardSeries(t *testing.T) {
	cases := []struct {
		name   string
		board  int
		metric string
		ok     bool
	}{
		{"board3/supply_mw", 3, "supply_mw", true},
		{"board12/x", 12, "x", true},
		{"inject_rate", 0, "", false},
		{"board/x", 0, "", false},
		{"boardX/x", 0, "", false},
	}
	for _, c := range cases {
		b, m, ok := boardSeries(c.name)
		if ok != c.ok || (ok && (b != c.board || m != c.metric)) {
			t.Errorf("boardSeries(%q) = (%d,%q,%v), want (%d,%q,%v)",
				c.name, b, m, ok, c.board, c.metric, c.ok)
		}
	}
}
