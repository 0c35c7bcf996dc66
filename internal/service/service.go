// Package service turns the simulator into a long-running
// simulation-as-a-service backend: an HTTP/JSON job API over a
// bounded-concurrency job queue, with a content-addressed result cache,
// live telemetry streaming, cooperative cancellation and graceful
// drain.
//
// Design:
//
//   - Jobs (single runs or figure sweeps) are queued and executed by a
//     fixed worker pool budgeted against GOMAXPROCS, the same rule
//     sweep.RunContext uses, so a loaded server saturates the machine
//     without oversubscribing it.
//   - Every run is content-addressed by its canonical Config digest
//     (core.Config.Digest): a completed result is cached under that
//     key, a resubmitted identical config is answered from the cache
//     without simulating, and concurrent identical submissions dedupe
//     onto one in-flight simulation. Determinism makes this sound —
//     equal digests imply byte-identical results.
//   - Each running job re-emits the engine's unified telemetry through
//     a bounded event log that HTTP clients stream as NDJSON or SSE;
//     a slow client skips ahead rather than slowing the simulation.
//   - Cancellation (DELETE, per-job timeout, shutdown) rides the
//     RunContext API: it takes effect at the next
//     reconfiguration-window boundary, so cancelled jobs return
//     promptly with the metrics of their completed prefix.
//   - Shutdown stops intake, cancels still-queued jobs and drains the
//     running ones (force-cancelling them when the drain context
//     expires).
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Options configures a Server. The zero value is a sensible default.
type Options struct {
	// Workers bounds concurrently running jobs; 0 picks
	// runtime.GOMAXPROCS(0), the same budget rule as sweep.RunContext.
	Workers int
	// QueueCap bounds jobs queued behind the workers; a full queue
	// rejects new submissions with 503. 0 or negative means 64.
	QueueCap int
	// JobTimeout, when positive, bounds each job's wall-clock run time;
	// a timed-out run fails with the metrics of its completed prefix.
	JobTimeout time.Duration
	// CacheCap bounds the content-addressed result cache; 0 means 256,
	// negative disables caching.
	CacheCap int
	// EventCap is how many telemetry events each job's log retains at
	// most for streaming clients; the log's memory grows with the events
	// a job emits, up to this bound. 0 or negative means 65536.
	EventCap int
	// MaxBody bounds request bodies in bytes; 0 means 1 MiB.
	MaxBody int64
	// Logger, when set, receives one structured log line per HTTP
	// request and per job lifecycle transition. nil disables logging.
	Logger *slog.Logger
}

// withDefaults resolves zero values.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.CacheCap == 0 {
		o.CacheCap = 256
	}
	if o.CacheCap < 0 {
		o.CacheCap = 0 // disables
	}
	if o.EventCap <= 0 {
		o.EventCap = 1 << 16
	}
	if o.MaxBody == 0 {
		o.MaxBody = 1 << 20
	}
	return o
}

// Server is the simulation job service. Create one with New, mount its
// Handler on an http.Server, and Shutdown to drain.
type Server struct {
	opts Options
	// sweepWorkers is the intra-sweep parallelism budget: with W job
	// workers each potentially running a sweep, every sweep gets
	// GOMAXPROCS/W run slots so the products stay near the core count.
	sweepWorkers int

	cache   *resultCache
	log     *slog.Logger
	metrics *serverMetrics
	reqSeq  atomic.Uint64 // generated request-ID sequence

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string        // submission order, for listing
	inflight map[string]*Job // config digest → queued/running primary run job
	queue    chan *Job
	nextID   uint64
	closed   bool

	wg sync.WaitGroup
}

// errServerClosed rejects submissions during drain.
var errServerClosed = errors.New("service: server is draining")

// errQueueFull rejects submissions beyond the queue bound.
var errQueueFull = errors.New("service: job queue is full")

// New creates a Server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:         opts,
		sweepWorkers: max(1, runtime.GOMAXPROCS(0)/opts.Workers),
		cache:        newResultCache(opts.CacheCap),
		log:          opts.Logger,
		metrics:      newServerMetrics(opts.Workers),
		jobs:         make(map[string]*Job),
		inflight:     make(map[string]*Job),
		queue:        make(chan *Job, opts.QueueCap),
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Workers returns the effective worker budget.
func (s *Server) Workers() int { return s.opts.Workers }

// newJobLocked allocates a job skeleton; the caller holds s.mu.
func (s *Server) newJobLocked(kind string) *Job {
	s.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id:          fmt.Sprintf("j%06d", s.nextID),
		kind:        kind,
		state:       StateQueued,
		submittedAt: time.Now(),
		runCtx:      ctx,
		cancel:      cancel,
		done:        make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	return j
}

// submitRun queues one simulation, tagged with the originating request
// ID. Identical configs (by canonical digest) are answered from the
// result cache or deduped onto an in-flight job. The error is
// errServerClosed or errQueueFull mapped by the HTTP layer; the config
// must already be validated.
func (s *Server) submitRun(cfg core.Config, reqID string) (JobView, error) {
	m := s.metrics
	digest := cfg.Digest()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		m.rejected["draining"].Inc()
		return JobView{}, errServerClosed
	}

	if e := s.cache.get(digest); e != nil {
		// Content-addressed hit: complete instantly without simulating.
		j := s.newJobLocked("run")
		j.cfg = cfg
		j.configDigest = digest
		j.requestID = reqID
		j.cached = true
		j.state = StateDone
		j.startedAt = j.submittedAt
		j.finishedAt = j.submittedAt
		j.resultJSON = e.resultJSON
		j.resultDigest = e.resultDigest
		close(j.done)
		m.submitted["run"].Inc()
		m.cacheHits.Inc()
		m.completed[StateDone].Inc()
		s.logJob(j, "job cached")
		return j.snapshot(), nil
	}
	m.cacheMisses.Inc()

	if primary := s.inflight[digest]; primary != nil {
		// Same config already queued or running: ride that simulation.
		j := s.newJobLocked("run")
		j.cfg = cfg
		j.configDigest = digest
		j.requestID = reqID
		j.dedupeOf = primary.id
		j.events = primary.events
		primary.followers = append(primary.followers, j)
		m.submitted["run"].Inc()
		m.deduped.Inc()
		s.logJob(j, "job deduped")
		return j.snapshot(), nil
	}

	j := s.newJobLocked("run")
	j.cfg = cfg
	j.configDigest = digest
	j.requestID = reqID
	j.events = newEventLog(s.opts.EventCap)
	select {
	case s.queue <- j:
	default:
		delete(s.jobs, j.id)
		s.order = s.order[:len(s.order)-1]
		j.cancel()
		m.rejected["queue_full"].Inc()
		return JobView{}, errQueueFull
	}
	s.inflight[digest] = j
	m.submitted["run"].Inc()
	s.logJob(j, "job queued")
	return j.snapshot(), nil
}

// submitSweep queues a figure sweep (patterns × modes × loads over a
// base config), tagged with the originating request ID. Sweeps are not
// content-cached; their runs parallelize under the server's GOMAXPROCS
// budget.
func (s *Server) submitSweep(req sweep.Request, reqID string) (JobView, error) {
	m := s.metrics
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		m.rejected["draining"].Inc()
		return JobView{}, errServerClosed
	}
	j := s.newJobLocked("sweep")
	j.sweepReq = req
	j.sweepTotal = len(req.Patterns) * len(req.Modes) * len(req.Loads)
	j.requestID = reqID
	j.events = newEventLog(s.opts.EventCap)
	select {
	case s.queue <- j:
	default:
		delete(s.jobs, j.id)
		s.order = s.order[:len(s.order)-1]
		j.cancel()
		m.rejected["queue_full"].Inc()
		return JobView{}, errQueueFull
	}
	m.submitted["sweep"].Inc()
	s.logJob(j, "job queued")
	return j.snapshot(), nil
}

// logJob emits one structured lifecycle line for a job; nil-logger
// safe. The small fixed attribute set keeps every line grep-able by
// job id and joinable to the HTTP log by request id.
func (s *Server) logJob(j *Job, msg string, extra ...any) {
	if s.log == nil {
		return
	}
	attrs := []any{"job", j.id, "kind", j.kind, "state", string(j.state)}
	if j.requestID != "" {
		attrs = append(attrs, "request_id", j.requestID)
	}
	attrs = append(attrs, extra...)
	s.log.Info(msg, attrs...)
}

// Job returns the snapshot of one job.
func (s *Server) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.snapshot(), true
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].snapshot())
	}
	return out
}

// eventLogFor returns the job's event log for streaming.
func (s *Server) eventLogFor(id string) (*eventLog, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.events, true
}

// Cancel stops a job: a queued job is cancelled immediately (its
// deduped followers share its fate), a running one is interrupted at
// its next reconfiguration-window boundary. Cancelling a terminal job
// is a no-op. The second return is false when the id is unknown.
func (s *Server) Cancel(id string) (JobView, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobView{}, false
	}
	switch {
	case j.state.Terminal():
		// no-op
	case j.state == StateQueued && j.dedupeOf != "":
		// Follower: detach from its primary and finish.
		if p := s.jobs[j.dedupeOf]; p != nil {
			for i, f := range p.followers {
				if f == j {
					p.followers = append(p.followers[:i], p.followers[i+1:]...)
					break
				}
			}
		}
		s.finishLocked(j, StateCancelled, nil, "", "cancelled", false)
	case j.state == StateQueued:
		// Still in the channel; the worker that eventually receives it
		// skips terminal jobs.
		s.finishLocked(j, StateCancelled, nil, "", "cancelled", false)
	default: // running
		j.cancel()
	}
	v := j.snapshot()
	s.mu.Unlock()
	return v, true
}

// Done returns a channel closed when the job reaches a terminal state.
func (s *Server) Done(id string) (<-chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.done, true
}

// worker drains the queue until it closes. Each worker owns one runner
// for all its run jobs.
func (s *Server) worker() {
	defer s.wg.Done()
	var runner core.Runner
	for j := range s.queue {
		s.runJob(&runner, j)
	}
}

// runJob executes one queued job to a terminal state.
func (s *Server) runJob(runner *core.Runner, j *Job) {
	m := s.metrics
	s.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while waiting in the channel.
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.startedAt = time.Now()
	wait := j.startedAt.Sub(j.submittedAt)
	s.logJob(j, "job started", "queue_wait_ms", float64(wait.Microseconds())/1000)
	s.mu.Unlock()
	m.queueWait.Observe(wait.Seconds())
	m.running.Add(1)
	defer m.running.Add(-1)

	ctx := j.runCtx
	if s.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.JobTimeout)
		defer cancel()
	}

	var (
		resultJSON json.RawMessage
		err        error
	)
	if j.kind == "sweep" {
		resultJSON, err = s.execSweep(ctx, j)
	} else {
		resultJSON, err = s.execRun(ctx, runner, j)
	}

	state := StateDone
	errMsg := ""
	partial := false
	resultDigest := ""
	if resultJSON != nil {
		resultDigest = digestBytes(resultJSON)
	}
	var cancelled *core.CancelledError
	switch {
	case err == nil:
	case errors.As(err, &cancelled) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		partial = resultJSON != nil
		if errors.Is(err, context.DeadlineExceeded) {
			state = StateFailed
			errMsg = fmt.Sprintf("job timeout (%s) exceeded: %v", s.opts.JobTimeout, err)
		} else {
			state = StateCancelled
			errMsg = err.Error()
		}
		// A partial result must never populate the content cache.
		resultDigest = ""
		if partial {
			resultDigest = digestBytes(resultJSON)
		}
	default:
		state = StateFailed
		errMsg = err.Error()
		resultDigest = ""
	}

	s.mu.Lock()
	if state == StateDone && j.kind == "run" {
		s.cache.put(&cacheEntry{
			configDigest: j.configDigest,
			resultJSON:   resultJSON,
			resultDigest: resultDigest,
		})
	}
	s.finishLocked(j, state, resultJSON, resultDigest, errMsg, partial)
	elapsed := j.finishedAt.Sub(j.startedAt)
	s.logJob(j, "job finished",
		"run_ms", float64(elapsed.Microseconds())/1000, "error", errMsg)
	s.mu.Unlock()
	if h := m.runSeconds[j.kind]; h != nil {
		h.Observe(elapsed.Seconds())
	}
}

// finishLocked moves a job (and its deduped followers) to a terminal
// state; the caller holds s.mu.
func (s *Server) finishLocked(j *Job, state JobState, resultJSON json.RawMessage, resultDigest, errMsg string, partial bool) {
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.finishedAt = time.Now()
	if c := s.metrics.completed[state]; c != nil {
		c.Inc()
	}
	j.resultJSON = resultJSON
	j.resultDigest = resultDigest
	j.partial = partial
	if state != StateDone {
		j.errMsg = errMsg
	}
	if j.configDigest != "" && s.inflight[j.configDigest] == j {
		delete(s.inflight, j.configDigest)
	}
	j.cancel()
	close(j.done)
	if j.events != nil && j.dedupeOf == "" {
		j.events.close()
	}
	// Followers complete with (and share the fate of) their primary.
	followers := j.followers
	j.followers = nil
	for _, f := range followers {
		fMsg := errMsg
		if state != StateDone && fMsg == "" {
			fMsg = "deduped-onto job " + j.id + " did not complete"
		}
		s.finishLocked(f, state, resultJSON, resultDigest, fMsg, partial)
	}
}

// execRun simulates one configuration on the worker's runner,
// streaming its telemetry into the job's event log.
func (s *Server) execRun(ctx context.Context, runner *core.Runner, j *Job) (json.RawMessage, error) {
	if j.events != nil {
		runner.AttachSink(j.events)
	}
	res, runErr := runner.RunContext(ctx, j.cfg)
	var data json.RawMessage
	if res != nil {
		var err error
		data, err = json.Marshal(res)
		if err != nil {
			return nil, err
		}
	}
	return data, runErr
}

// sweepResult is the serialized form of a completed sweep job.
type sweepResult struct {
	Series []sweepSeriesView `json:"series"`
}

// sweepSeriesView renders one curve with a readable mode label.
type sweepSeriesView struct {
	Mode    string           `json:"mode"`
	Pattern string           `json:"pattern"`
	Points  []sweepPointView `json:"points"`
}

// sweepPointView is one (load, result) pair; Error is set on failed or
// cancelled points.
type sweepPointView struct {
	Load   float64         `json:"load"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// execSweep runs a figure sweep under the server's parallelism budget,
// emitting one synthetic progress event per completed point.
func (s *Server) execSweep(ctx context.Context, j *Job) (json.RawMessage, error) {
	req := j.sweepReq
	req.Workers = s.sweepWorkers
	var done telemetry.Counter
	total := j.sweepTotal
	events := j.events
	req.OnResult = func(sr sweep.Series, p sweep.Point) {
		if events == nil {
			return
		}
		events.Emit(telemetry.Event{
			Kind: telemetry.PhaseChange, Board: -1, Wavelength: -1, Dest: -1,
			Label: fmt.Sprintf("sweep-point %s load %.2f done (%d/%d)", sr.Label(), p.Load, done.Inc(), total),
		})
	}
	series, err := sweep.RunContext(ctx, req)
	out := sweepResult{Series: make([]sweepSeriesView, 0, len(series))}
	for _, sr := range series {
		v := sweepSeriesView{Mode: sr.Mode.String(), Pattern: sr.Pattern}
		for _, p := range sr.Points {
			pv := sweepPointView{Load: p.Load}
			if p.Result != nil {
				data, mErr := json.Marshal(p.Result)
				if mErr != nil {
					return nil, mErr
				}
				pv.Result = data
			}
			if p.Err != nil {
				pv.Error = p.Err.Error()
			}
			v.Points = append(v.Points, pv)
		}
		out.Series = append(out.Series, v)
	}
	data, mErr := json.Marshal(out)
	if mErr != nil {
		return nil, mErr
	}
	if err != nil {
		// Point errors (or cancellation) fail the job but keep the
		// partial series visible.
		if cErr := ctx.Err(); cErr != nil {
			return data, &core.CancelledError{Cause: cErr}
		}
		return data, err
	}
	return data, nil
}

// Shutdown drains the server: intake stops (submissions return 503),
// still-queued jobs are cancelled, and running jobs are given until
// ctx expires to finish before being force-cancelled (which they obey
// within one reconfiguration window). It returns ctx.Err() when the
// drain had to force-cancel, else nil.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	// Cancel everything still waiting in the queue; workers skip
	// terminal jobs, so draining the channel here is just an
	// optimization for jobs no worker has reached yet.
drain:
	for {
		select {
		case j := <-s.queue:
			s.finishLocked(j, StateCancelled, nil, "", "server shutting down", false)
		default:
			break drain
		}
	}
	close(s.queue)
	s.mu.Unlock()

	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.state == StateRunning {
				j.cancel()
			}
		}
		s.mu.Unlock()
		<-workersDone
		return ctx.Err()
	}
}

// digestBytes returns the hex SHA-256 of data.
func digestBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
