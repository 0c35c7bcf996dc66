package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// scrape GETs /metrics through the full instrumented handler and
// returns {family or family{labels} → value} for every sample line.
func scrape(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// TestMetricsEndpoint drives a run job through submit → done → cached
// re-submit and asserts the /metrics exposition reflects each step:
// counters advance, the run-duration histogram fills, runtime gauges
// exist and histogram buckets are cumulative.
func TestMetricsEndpoint(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)
	cfg := fastCfg(core.PNB, 41)

	v, err := s.submitRun(cfg, "req-test-1")
	if err != nil {
		t.Fatal(err)
	}
	if v.RequestID != "req-test-1" {
		t.Fatalf("RequestID = %q, want req-test-1", v.RequestID)
	}
	waitDone(t, s, v.ID)

	m1 := scrape(t, s)
	if got := m1[`erapid_jobs_submitted_total{kind="run"}`]; got != 1 {
		t.Errorf("submitted{run} = %v, want 1", got)
	}
	if got := m1["erapid_cache_hits_total"]; got != 0 {
		t.Errorf("cache_hits = %v, want 0", got)
	}
	if got := m1["erapid_cache_misses_total"]; got != 1 {
		t.Errorf("cache_misses = %v, want 1", got)
	}

	// Identical config: answered from the cache without simulating.
	v2, err := s.submitRun(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached {
		t.Fatalf("re-submit not cached: %+v", v2)
	}
	m2 := scrape(t, s)
	if got := m2["erapid_cache_hits_total"]; got != m1["erapid_cache_hits_total"]+1 {
		t.Errorf("cache_hits after re-submit = %v, want %v", got, m1["erapid_cache_hits_total"]+1)
	}
	if got := m2[`erapid_jobs_submitted_total{kind="run"}`]; got != 2 {
		t.Errorf("submitted{run} = %v, want 2", got)
	}
	if got := m2[`erapid_jobs_completed_total{state="done"}`]; got != 2 {
		t.Errorf("completed{done} = %v, want 2", got)
	}
	if got := m2[`erapid_job_run_seconds_count{kind="run"}`]; got != 1 {
		t.Errorf("run_seconds{run} count = %v, want 1 (cache hit must not observe)", got)
	}
	if got := m2["erapid_job_queue_wait_seconds_count"]; got != 1 {
		t.Errorf("queue_wait count = %v, want 1", got)
	}
	if m2["go_goroutines"] <= 0 {
		t.Error("go_goroutines missing or zero")
	}
	if m2["go_memstats_heap_alloc_bytes"] <= 0 {
		t.Error("heap_alloc missing or zero")
	}
	if m2["erapid_workers"] != 1 {
		t.Errorf("erapid_workers = %v", m2["erapid_workers"])
	}
	// The two scrapes themselves were instrumented requests.
	if got := m2[`erapid_http_requests_total{route="GET /metrics",code="200"}`]; got < 1 {
		t.Errorf("http_requests{GET /metrics} = %v, want >= 1", got)
	}

	// Histogram buckets must be cumulative and end at the total count.
	prev := -1.0
	n := 0
	for _, b := range jobSecondsBuckets {
		key := fmt.Sprintf(`erapid_job_queue_wait_seconds_bucket{le="%s"}`, strconv.FormatFloat(b, 'g', -1, 64))
		v, ok := m2[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if v < prev {
			t.Fatalf("bucket %s = %v < previous %v", key, v, prev)
		}
		prev = v
		n++
	}
	if inf := m2[`erapid_job_queue_wait_seconds_bucket{le="+Inf"}`]; inf != m2["erapid_job_queue_wait_seconds_count"] {
		t.Errorf("+Inf bucket %v != count %v", inf, m2["erapid_job_queue_wait_seconds_count"])
	}
}

// TestRequestIDHeader pins the middleware contract: a supplied
// X-Request-Id is echoed and lands on the job view; a missing one is
// generated.
func TestRequestIDHeader(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)
	h := s.Handler()

	body := strings.NewReader(`{"Mode":"P-B","Boards":4,"NodesPerBoard":4,"Window":500,"WarmupCycles":500,"MeasureCycles":500}`)
	req := httptest.NewRequest("POST", "/v1/runs", body)
	req.Header.Set("X-Request-Id", "abc-123")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 202 && rec.Code != 200 {
		t.Fatalf("POST /v1/runs = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Request-Id"); got != "abc-123" {
		t.Fatalf("echoed X-Request-Id = %q", got)
	}
	var view JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.RequestID != "abc-123" {
		t.Fatalf("job request_id = %q", view.RequestID)
	}
	waitDone(t, s, view.ID)

	req2 := httptest.NewRequest("GET", "/v1/jobs", nil)
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req2)
	if got := rec2.Header().Get("X-Request-Id"); !strings.HasPrefix(got, "req-") {
		t.Fatalf("generated X-Request-Id = %q", got)
	}
}

// TestRequestLogs asserts the structured log: one parseable JSON line
// per HTTP request and per job transition, joined by request_id.
func TestRequestLogs(t *testing.T) {
	var buf bytes.Buffer
	s := New(Options{Workers: 1, Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	defer shutdown(t, s)
	h := s.Handler()

	req := httptest.NewRequest("POST", "/v1/runs", strings.NewReader(
		`{"Boards":4,"NodesPerBoard":4,"Window":500,"WarmupCycles":500,"MeasureCycles":500}`))
	req.Header.Set("X-Request-Id", "log-test-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var view JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	waitDone(t, s, view.ID)

	var msgs []string
	withReqID := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		msg, _ := entry["msg"].(string)
		msgs = append(msgs, msg)
		if entry["request_id"] == "log-test-1" {
			withReqID++
		}
	}
	joined := strings.Join(msgs, ",")
	for _, want := range []string{"http", "job queued", "job started", "job finished"} {
		if !strings.Contains(joined, want) {
			t.Errorf("log missing %q line; got %v", want, msgs)
		}
	}
	// The submit request and the job-queued line share the request id.
	if withReqID < 2 {
		t.Errorf("only %d lines carry request_id=log-test-1", withReqID)
	}
}
