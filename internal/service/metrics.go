// Service metrics: every counter, gauge and histogram erapid-serve
// exports on /metrics, built on the telemetry Registry with labels
// embedded in the metric names (see telemetry.WritePrometheus). All
// instruments are pre-created at server construction so the exposition
// always carries the full family set (zero-valued until first use) —
// dashboards and the CI metrics smoke can grep for families before any
// job has run.
package service

import (
	"net/http"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/telemetry"
)

// jobSecondsBuckets spans queue waits and run durations: 1ms .. ~262s
// in log-scale steps of 4x.
var jobSecondsBuckets = telemetry.ExpBuckets(0.001, 4, 10)

// httpSecondsBuckets spans HTTP request latencies: 100µs .. ~26s.
var httpSecondsBuckets = telemetry.ExpBuckets(0.0001, 4, 10)

// serverMetrics aggregates the server's operational instruments.
type serverMetrics struct {
	reg *telemetry.Registry

	submitted map[string]*telemetry.Counter   // kind → counter
	completed map[JobState]*telemetry.Counter // terminal state → counter

	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter
	deduped     *telemetry.Counter
	rejected    map[string]*telemetry.Counter // reason → counter

	running       *telemetry.Gauge // jobs currently executing
	workers       *telemetry.Gauge // static worker budget
	utilization   *telemetry.Gauge // running / workers, computed at scrape
	queueDepth    *telemetry.Gauge // scrape-time channel depth
	jobsTracked   *telemetry.Gauge // scrape-time job-table size
	cacheEntries  *telemetry.Gauge // scrape-time cache size
	streamsActive *telemetry.Gauge

	queueWait     *telemetry.Histogram
	runSeconds    map[string]*telemetry.Histogram // kind → histogram
	httpSeconds   *telemetry.Histogram
	streamSkipped *telemetry.Counter

	// gcCycles advances by the NumGC delta between scrapes; the mutex
	// keeps concurrent scrapes from double-counting an increment. GC
	// pause time is monotone but fractional, so it rides a gauge set
	// from PauseTotalNs at scrape time.
	gcMu      sync.Mutex
	lastNumGC uint32
	gcCycles  *telemetry.Counter
	gcPause   *telemetry.Gauge

	goroutines  *telemetry.Gauge
	gomaxprocs  *telemetry.Gauge
	heapAlloc   *telemetry.Gauge
	heapSys     *telemetry.Gauge
	heapObjects *telemetry.Gauge
	nextGC      *telemetry.Gauge
}

func newServerMetrics(workers int) *serverMetrics {
	reg := telemetry.NewRegistry(1)
	m := &serverMetrics{reg: reg}

	reg.SetHelp("erapid_jobs_submitted_total", "Jobs accepted, by kind (run, sweep).")
	m.submitted = map[string]*telemetry.Counter{
		"run":   reg.Counter(telemetry.PromName("erapid_jobs_submitted_total", "kind", "run")),
		"sweep": reg.Counter(telemetry.PromName("erapid_jobs_submitted_total", "kind", "sweep")),
	}
	reg.SetHelp("erapid_jobs_completed_total", "Jobs reaching a terminal state, by state.")
	m.completed = map[JobState]*telemetry.Counter{
		StateDone:      reg.Counter(telemetry.PromName("erapid_jobs_completed_total", "state", "done")),
		StateFailed:    reg.Counter(telemetry.PromName("erapid_jobs_completed_total", "state", "failed")),
		StateCancelled: reg.Counter(telemetry.PromName("erapid_jobs_completed_total", "state", "cancelled")),
	}
	reg.SetHelp("erapid_cache_hits_total", "Run submissions answered from the content-addressed result cache.")
	m.cacheHits = reg.Counter("erapid_cache_hits_total")
	reg.SetHelp("erapid_cache_misses_total", "Run submissions that had to simulate (or dedupe onto an in-flight run).")
	m.cacheMisses = reg.Counter("erapid_cache_misses_total")
	reg.SetHelp("erapid_jobs_deduped_total", "Run submissions deduped onto an identical in-flight job.")
	m.deduped = reg.Counter("erapid_jobs_deduped_total")
	reg.SetHelp("erapid_submit_rejected_total", "Submissions rejected, by reason (queue_full, draining).")
	m.rejected = map[string]*telemetry.Counter{
		"queue_full": reg.Counter(telemetry.PromName("erapid_submit_rejected_total", "reason", "queue_full")),
		"draining":   reg.Counter(telemetry.PromName("erapid_submit_rejected_total", "reason", "draining")),
	}

	reg.SetHelp("erapid_jobs_running", "Jobs currently executing on the worker pool.")
	m.running = reg.Gauge("erapid_jobs_running")
	reg.SetHelp("erapid_workers", "Configured worker-pool size.")
	m.workers = reg.Gauge("erapid_workers")
	m.workers.Set(float64(workers))
	reg.SetHelp("erapid_worker_utilization", "Running jobs over the worker budget (0..1).")
	m.utilization = reg.Gauge("erapid_worker_utilization")
	reg.SetHelp("erapid_queue_depth", "Jobs waiting in the submission queue.")
	m.queueDepth = reg.Gauge("erapid_queue_depth")
	reg.SetHelp("erapid_jobs_tracked", "Jobs held in the in-memory job table.")
	m.jobsTracked = reg.Gauge("erapid_jobs_tracked")
	reg.SetHelp("erapid_cache_entries", "Entries in the content-addressed result cache.")
	m.cacheEntries = reg.Gauge("erapid_cache_entries")
	reg.SetHelp("erapid_event_streams_active", "Open /events streaming connections.")
	m.streamsActive = reg.Gauge("erapid_event_streams_active")

	reg.SetHelp("erapid_job_queue_wait_seconds", "Time jobs spend queued before a worker picks them up.")
	m.queueWait = reg.Histogram("erapid_job_queue_wait_seconds", jobSecondsBuckets)
	reg.SetHelp("erapid_job_run_seconds", "Wall-clock job execution time, by kind.")
	m.runSeconds = map[string]*telemetry.Histogram{
		"run":   reg.Histogram(telemetry.PromName("erapid_job_run_seconds", "kind", "run"), jobSecondsBuckets),
		"sweep": reg.Histogram(telemetry.PromName("erapid_job_run_seconds", "kind", "sweep"), jobSecondsBuckets),
	}
	reg.SetHelp("erapid_http_request_seconds", "HTTP request latency.")
	m.httpSeconds = reg.Histogram("erapid_http_request_seconds", httpSecondsBuckets)
	reg.SetHelp("erapid_http_requests_total", "HTTP requests, by route pattern and status code.")
	reg.SetHelp("erapid_event_stream_skipped_total", "Events dropped because a streaming client fell behind its ring.")
	m.streamSkipped = reg.Counter("erapid_event_stream_skipped_total")

	reg.SetHelp("go_goroutines", "Live goroutines.")
	m.goroutines = reg.Gauge("go_goroutines")
	reg.SetHelp("go_gomaxprocs", "GOMAXPROCS.")
	m.gomaxprocs = reg.Gauge("go_gomaxprocs")
	reg.SetHelp("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.")
	m.heapAlloc = reg.Gauge("go_memstats_heap_alloc_bytes")
	reg.SetHelp("go_memstats_heap_sys_bytes", "Heap memory obtained from the OS.")
	m.heapSys = reg.Gauge("go_memstats_heap_sys_bytes")
	reg.SetHelp("go_memstats_heap_objects", "Live heap objects.")
	m.heapObjects = reg.Gauge("go_memstats_heap_objects")
	reg.SetHelp("go_memstats_next_gc_bytes", "Heap size target of the next GC cycle.")
	m.nextGC = reg.Gauge("go_memstats_next_gc_bytes")
	reg.SetHelp("go_gc_cycles_total", "Completed GC cycles.")
	m.gcCycles = reg.Counter("go_gc_cycles_total")
	reg.SetHelp("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time (monotone).")
	m.gcPause = reg.Gauge("go_gc_pause_seconds_total")
	return m
}

// httpRequest records one served request.
func (m *serverMetrics) httpRequest(route string, code int, seconds float64) {
	m.httpSeconds.Observe(seconds)
	m.reg.Counter(telemetry.PromName("erapid_http_requests_total",
		"route", route, "code", strconv.Itoa(code))).Inc()
}

// updateRuntime refreshes the Go runtime gauges and advances the GC
// counters by the delta since the previous scrape.
func (m *serverMetrics) updateRuntime() {
	m.goroutines.Set(float64(runtime.NumGoroutine()))
	m.gomaxprocs.Set(float64(runtime.GOMAXPROCS(0)))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapAlloc.Set(float64(ms.HeapAlloc))
	m.heapSys.Set(float64(ms.HeapSys))
	m.heapObjects.Set(float64(ms.HeapObjects))
	m.nextGC.Set(float64(ms.NextGC))

	m.gcPause.Set(float64(ms.PauseTotalNs) / 1e9)

	m.gcMu.Lock()
	if d := ms.NumGC - m.lastNumGC; d > 0 {
		m.gcCycles.Add(uint64(d))
		m.lastNumGC = ms.NumGC
	}
	m.gcMu.Unlock()
}

// MetricsHandler returns just the Prometheus /metrics endpoint, for
// mounting on an admin listener alongside pprof.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(s.handleMetrics)
}

// handleMetrics serves the Prometheus text exposition: scrape-time
// gauges are refreshed first, then the registry is rendered.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	m.updateRuntime()
	s.mu.Lock()
	queued := len(s.queue)
	jobs := len(s.jobs)
	s.mu.Unlock()
	m.queueDepth.Set(float64(queued))
	m.jobsTracked.Set(float64(jobs))
	m.cacheEntries.Set(float64(s.cache.len()))
	if w := m.workers.Value(); w > 0 {
		m.utilization.Set(m.running.Value() / w)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = telemetry.WritePrometheus(w, m.reg)
}
