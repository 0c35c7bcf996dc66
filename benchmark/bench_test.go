package main

import (
	"context"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {9, 50}, {19, 50}, // fewer than ten samples beyond any tail: the median only
		{39, 50}, {40, 75}, // 40 x 25% = 10 beyond p75
		{99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (ten samples beyond it)", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %v, want 100", got)
	}
}

// TestQuartilesMatchPython pins median and quartiles to the values
// Python's statistics.median / statistics.quantiles(xs, n=4) return,
// because the driver judges the benchmark's spread with those.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{0.45, 0.47, 0.44, 0.52, 0.46, 0.48, 0.45}, 0.46, 0.45, 0.48},
		{[]float64{7}, 7, 7, 7},
	} {
		if got := median(c.xs); math.Abs(got-c.med) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if w := relWorse(2, 2.2, "lower"); math.Abs(w-0.1) > 1e-12 {
		t.Errorf("relWorse lower = %v, want 0.1", w)
	}
	if w := relWorse(10, 9, "higher"); math.Abs(w-0.1) > 1e-12 {
		t.Errorf("relWorse higher = %v, want 0.1", w)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},       // overlaps a: 20..30 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},      // sticks out of the parent: clipped at 100
		{ID: 5, Parent: 2, Name: "a.inner", Start: 12, End: 18}, // a grandchild shrinks only its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - (20 + 20 + 10), 2: 20 - 6, 3: 30, 4: 30, 5: 6} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	byName := selfByName(spans)
	if got := byName["op"]; got != 50e-9 {
		t.Errorf("selfByName[op] = %v s, want 50 ns", got)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("off", 0)) // tracing off must be a no-op, not a crash
}

func TestPromScrapeDelta(t *testing.T) {
	parse := func(name string) map[string]float64 {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		m, err := parseProm(f)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	d := promDelta(parse("testdata/metrics_before.txt"), parse("testdata/metrics_after.txt"))
	for name, want := range map[string]float64{
		"erapid_cache_hits_total":                           1,
		"erapid_cache_misses_total":                         1,
		"erapid_jobs_deduped_total":                         0,
		`erapid_job_run_seconds_count{kind="run"}`:          1,
		`erapid_job_run_seconds_sum{kind="run"}`:            0.045617171,
		`erapid_job_run_seconds_count{kind="sweep"}`:        0,
		"erapid_job_queue_wait_seconds_sum":                 0.009204148,
		`erapid_submit_rejected_total{reason="queue_full"}`: 0,
	} {
		got, ok := d[name]
		if !ok || math.Abs(got-want) > 1e-12 {
			t.Errorf("delta[%s] = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if _, ok := d["# HELP erapid_cache_hits_total Run"]; ok {
		t.Error("comment lines parsed as samples")
	}
}

func names(ms []metricSpec) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmokeNamesMatchSpec runs every workload through both modes on tiny
// inputs and requires the emitted workload and metric names to be exactly
// the sets BENCHMARK.json declares.
func TestSmokeNamesMatchSpec(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command to build the programs under test")
	}
	b, err := newBench("..", 1, true, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	ctx := context.Background()

	var declared, real []string
	for _, w := range b.spec.Workloads {
		declared = append(declared, w.Name)
		if len(w.Why) == 0 {
			t.Errorf("workload %s has no why", w.Name)
		}
	}
	for _, w := range workloads(false) {
		real = append(real, w.name)
	}
	if !equal(declared, real) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", real, declared)
	}

	for _, w := range workloads(true) {
		o, err := b.measure(ctx, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := keys(o.values()), names(b.spec.EndToEnd); !equal(got, want) {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json declares %v", w.name, got, want)
		}
		l, err := b.traced(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := keys(l.values), names(b.spec.PerLayer); !equal(got, want) {
			t.Errorf("%s: per-layer metrics %v, BENCHMARK.json declares %v", w.name, got, want)
		}
		for _, out := range []*outcome{o, l.out} {
			if out.attempted == 0 || out.failed > 0 {
				t.Errorf("%s: %d of %d ops failed: %v", w.name, out.failed, out.attempted, out.problems)
			}
		}
		for name, v := range o.values() {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, v)
			}
		}
	}
}
