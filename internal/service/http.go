package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// errorBody is the envelope of every non-2xx JSON response. Fields is
// populated for validation failures so clients can fix a config
// document in one round trip.
type errorBody struct {
	Error  string            `json:"error"`
	Fields []core.FieldError `json:"fields,omitempty"`
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError maps err to the structured error envelope, lifting
// per-field diagnostics out of a core.ValidationError.
func writeError(w http.ResponseWriter, status int, err error) {
	body := errorBody{Error: err.Error()}
	var ve core.ValidationError
	if errors.As(err, &ve) {
		body.Fields = ve
	}
	writeJSON(w, status, body)
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/runs             submit one simulation (body: config JSON)
//	POST   /v1/sweeps           submit a figure sweep (body: base/patterns/modes/loads)
//	GET    /v1/jobs             list jobs in submission order
//	GET    /v1/jobs/{id}        job state and, once done, its result
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events stream live telemetry (NDJSON, or SSE
//	                            with Accept: text/event-stream; ?kinds=
//	                            filters by event kind name)
//	GET    /v1/healthz          liveness and capacity
//	GET    /metrics             Prometheus text exposition
//
// Every request is instrumented: it gets (or keeps) an X-Request-Id,
// shows up in erapid_http_requests_total / erapid_http_request_seconds
// under its route pattern, and — when Options.Logger is set — emits
// one structured JSON log line.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.instrument(mux)
}

// readBody reads the request body under the configured size bound.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: reading request body: %w", err))
		}
		return nil, false
	}
	if len(bytes.TrimSpace(body)) == 0 {
		body = []byte("{}")
	}
	return body, true
}

// submitStatus maps a fresh job view to its HTTP status: 200 for
// instantly-terminal submissions (cache hits), 202 for queued work.
func submitStatus(v JobView) int {
	if v.State.Terminal() {
		return http.StatusOK
	}
	return http.StatusAccepted
}

// writeSubmitError maps queue-admission failures.
func writeSubmitError(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, err)
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	cfg, err := core.ParseConfig(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	view, err := s.submitRun(cfg, RequestIDFrom(r.Context()))
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+view.ID)
	writeJSON(w, submitStatus(view), view)
}

// sweepBody is the POST /v1/sweeps request document.
type sweepBody struct {
	// Base is a config overlay (same schema as POST /v1/runs); omitted
	// fields take the paper defaults.
	Base json.RawMessage `json:"base"`
	// Patterns, Modes, Loads span the sweep's cartesian product. Modes
	// use the paper labels ("NP-NB", "P-NB", "NP-B", "P-B").
	Patterns []string  `json:"patterns"`
	Modes    []string  `json:"modes"`
	Loads    []float64 `json:"loads"`
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var doc sweepBody
	if err := json.Unmarshal(body, &doc); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: parsing sweep request: %w", err))
		return
	}
	base := doc.Base
	if len(base) == 0 {
		base = []byte("{}")
	}
	cfg, err := core.ParseConfig(base)
	if err != nil {
		// Attribute base-config field errors to the "base" document.
		var ve core.ValidationError
		if errors.As(err, &ve) {
			scoped := make(core.ValidationError, len(ve))
			for i, f := range ve {
				scoped[i] = core.FieldError{Field: "base." + f.Field, Msg: f.Msg}
			}
			err = scoped
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}

	var ve core.ValidationError
	modes := make([]core.Mode, 0, len(doc.Modes))
	for i, m := range doc.Modes {
		mode, err := core.ParseMode(m)
		if err != nil {
			ve = append(ve, core.FieldError{Field: fmt.Sprintf("modes[%d]", i), Msg: err.Error()})
			continue
		}
		modes = append(modes, mode)
	}
	req := sweep.Request{
		Base:     cfg,
		Patterns: doc.Patterns,
		Modes:    modes,
		Loads:    doc.Loads,
	}
	var axes core.ValidationError
	if errors.As(req.Validate(), &axes) {
		ve = append(ve, axes...)
	}
	if len(ve) > 0 {
		writeError(w, http.StatusBadRequest, ve)
		return
	}

	view, err := s.submitSweep(req, RequestIDFrom(r.Context()))
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+view.ID)
	writeJSON(w, submitStatus(view), view)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{s.Jobs()})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	queued := len(s.queue)
	jobs := len(s.jobs)
	closed := s.closed
	s.mu.Unlock()
	status := "ok"
	if closed {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    status,
		"workers":   s.opts.Workers,
		"queue_cap": s.opts.QueueCap,
		"queued":    queued,
		"jobs":      jobs,
		"cached":    s.cache.len(),
	})
}

// handleEvents streams a job's telemetry. Events already logged replay
// from the start (bounded by the log's ring); new ones stream live
// until the job finishes. The default framing is NDJSON in the same
// stable schema as the CLI's --events output; Accept: text/event-stream
// switches to SSE. ?kinds=deliver,phase filters by event kind name. A
// client that falls more than the ring capacity behind skips ahead
// (dropped events are simply not delivered).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	log, ok := s.eventLogFor(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown job %q", id))
		return
	}

	var filter map[telemetry.Kind]bool
	if raw := r.URL.Query().Get("kinds"); raw != "" {
		filter = make(map[telemetry.Kind]bool)
		for _, name := range strings.Split(raw, ",") {
			k, err := telemetry.KindFromString(strings.TrimSpace(name))
			if err != nil {
				writeError(w, http.StatusBadRequest, core.ValidationError{{Field: "kinds", Msg: err.Error()}})
				return
			}
			filter[k] = true
		}
	}

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	if log == nil {
		// Cache-hit job: it never simulated, so it has no event stream.
		return
	}

	// Wake the blocked reader when the client goes away so the handler
	// goroutine exits instead of waiting for more events.
	stop := context.AfterFunc(r.Context(), log.wake)
	defer stop()

	s.metrics.streamsActive.Add(1)
	defer s.metrics.streamsActive.Add(-1)

	var from uint64
	buf := make([]telemetry.Event, 0, 512)
	line := make([]byte, 0, 256)
	for {
		batch, resume, skipped, closed := log.next(r.Context(), from, buf)
		if skipped > 0 {
			s.metrics.streamSkipped.Add(skipped)
		}
		if r.Context().Err() != nil {
			return
		}
		from = resume
		for _, ev := range batch {
			if filter != nil && !filter[ev.Kind] {
				continue
			}
			line = line[:0]
			if sse {
				line = append(line, "data: "...)
			}
			line = telemetry.AppendEvent(line, ev)
			line = append(line, '\n')
			if sse {
				line = append(line, '\n')
			}
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		if len(batch) > 0 && flusher != nil {
			flusher.Flush()
		}
		if closed && len(batch) == 0 {
			return
		}
	}
}
