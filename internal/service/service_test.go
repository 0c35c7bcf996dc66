package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// fastCfg returns a small configuration that simulates in milliseconds.
func fastCfg(mode core.Mode, seed uint64) core.Config {
	cfg := core.DefaultConfig(mode)
	cfg.Boards = 4
	cfg.NodesPerBoard = 4
	cfg.Window = 500
	cfg.WarmupCycles = 1500
	cfg.MeasureCycles = 1500
	cfg.DrainLimitCycles = 30000
	cfg.Seed = seed
	return cfg
}

// endlessCfg returns a configuration that only finishes when cancelled.
func endlessCfg(seed uint64) core.Config {
	cfg := fastCfg(core.PB, seed)
	cfg.WarmupCycles = 1 << 40
	return cfg
}

// waitDone blocks until the job is terminal or the test deadline.
func waitDone(t *testing.T, s *Server, id string) JobView {
	t.Helper()
	ch, ok := s.Done(id)
	if !ok {
		t.Fatalf("unknown job %q", id)
	}
	select {
	case <-ch:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
	v, _ := s.Job(id)
	return v
}

// waitRunning polls until the job leaves the queue.
func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := s.Job(id)
		if !ok {
			t.Fatalf("unknown job %q", id)
		}
		if v.State != StateQueued {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
}

// TestRunByteIdentity: a run through the service returns byte-identical
// serialized metrics to the same config run through core.Run, and the
// advertised result digest matches those bytes.
func TestRunByteIdentity(t *testing.T) {
	cfg := fastCfg(core.PB, 1)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Options{Workers: 2})
	defer shutdown(t, s)
	v, err := s.submitRun(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, s, v.ID)
	if got.State != StateDone {
		t.Fatalf("job state %s (error %q), want done", got.State, got.Error)
	}
	if !bytes.Equal(got.Result, want) {
		t.Fatalf("service result differs from direct run:\n%s\n%s", got.Result, want)
	}
	if got.ResultDigest != digestBytes(want) {
		t.Fatalf("result digest %s does not match result bytes", got.ResultDigest)
	}
	if got.ConfigDigest != cfg.Digest() {
		t.Fatalf("config digest %s, want %s", got.ConfigDigest, cfg.Digest())
	}
}

// TestConcurrentQueuedJobs: at least 8 jobs submitted at once under a
// 2-worker budget all complete, each with exactly the result its config
// produces in isolation — no interleaving dependence.
func TestConcurrentQueuedJobs(t *testing.T) {
	const n = 8
	want := make(map[uint64][]byte, n)
	cfgs := make([]core.Config, n)
	for i := 0; i < n; i++ {
		cfgs[i] = fastCfg(core.Mode(i%4), uint64(100+i))
		res, err := core.Run(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		want[cfgs[i].Seed] = data
	}

	s := New(Options{Workers: 2, QueueCap: 2 * n})
	defer shutdown(t, s)
	ids := make([]string, n)
	for i, cfg := range cfgs {
		v, err := s.submitRun(cfg, "")
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = v.ID
	}
	if got := len(s.Jobs()); got != n {
		t.Fatalf("job list has %d entries, want %d", got, n)
	}
	for i, id := range ids {
		v := waitDone(t, s, id)
		if v.State != StateDone {
			t.Fatalf("job %s state %s (error %q)", id, v.State, v.Error)
		}
		if !bytes.Equal(v.Result, want[cfgs[i].Seed]) {
			t.Errorf("job %s (seed %d) result differs from isolated run", id, cfgs[i].Seed)
		}
	}
}

// TestResultCacheHit: resubmitting an identical config after completion
// is answered from the cache — instantly terminal, marked cached, same
// digest and bytes, no event stream.
func TestResultCacheHit(t *testing.T) {
	cfg := fastCfg(core.PNB, 7)
	s := New(Options{Workers: 1})
	defer shutdown(t, s)

	first, err := s.submitRun(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, s, first.ID)

	second, err := s.submitRun(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.State != StateDone {
		t.Fatalf("resubmission not served from cache: %+v", second)
	}
	if second.ResultDigest != done.ResultDigest {
		t.Fatalf("cached digest %s, want %s", second.ResultDigest, done.ResultDigest)
	}
	if !bytes.Equal(second.Result, done.Result) {
		t.Fatal("cached result bytes differ")
	}
	if second.EventsURL != "" {
		t.Fatal("cached job advertises an event stream it does not have")
	}
	if s.cache.len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", s.cache.len())
	}
}

// TestPolicyDistinctCache: two submissions differing only in the
// reconfiguration policy are distinct cache entries with distinct
// config digests — while the paper policy spelled out explicitly stays
// on the nil-policy cache line (its canonical form is absence).
func TestPolicyDistinctCache(t *testing.T) {
	cfg := fastCfg(core.PB, 7)
	s := New(Options{Workers: 1})
	defer shutdown(t, s)

	first, err := s.submitRun(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, s, first.ID)

	alt := cfg
	alt.Policy = &policy.Spec{Name: "greedy-off"}
	second, err := s.submitRun(alt, "")
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Fatalf("policy change served from the baseline cache entry: %+v", second)
	}
	altDone := waitDone(t, s, second.ID)
	if altDone.State != StateDone {
		t.Fatalf("job state %s (error %q), want done", altDone.State, altDone.Error)
	}
	if altDone.ConfigDigest == done.ConfigDigest {
		t.Fatalf("policy change did not change the config digest %s", done.ConfigDigest)
	}
	if altDone.ResultDigest == done.ResultDigest {
		t.Fatal("greedy-off produced byte-identical results to paper; digest distinction is vacuous")
	}
	if s.cache.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", s.cache.len())
	}

	// Explicit paper spec → same digest, cache hit on the first entry.
	explicit := cfg
	explicit.Policy = &policy.Spec{Name: "paper"}
	third, err := s.submitRun(explicit, "")
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached || third.ResultDigest != done.ResultDigest {
		t.Fatalf("explicit paper spec missed the nil-policy cache entry: %+v", third)
	}
}

// TestCacheDisabled: a negative capacity disables caching entirely.
func TestCacheDisabled(t *testing.T) {
	cfg := fastCfg(core.PNB, 7)
	s := New(Options{Workers: 1, CacheCap: -1})
	defer shutdown(t, s)
	v, _ := s.submitRun(cfg, "")
	waitDone(t, s, v.ID)
	again, err := s.submitRun(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Fatal("disabled cache served a hit")
	}
	waitDone(t, s, again.ID)
}

// TestInflightDedupe: submitting a config identical to a queued job
// rides that job instead of simulating twice, and completes with its
// exact result.
func TestInflightDedupe(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)

	blocker, err := s.submitRun(fastCfg(core.PB, 99), "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg(core.NPB, 50)
	a, err := s.submitRun(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.submitRun(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if b.DedupeOf != a.ID {
		t.Fatalf("duplicate submission deduped onto %q, want %q", b.DedupeOf, a.ID)
	}
	waitDone(t, s, blocker.ID)
	av := waitDone(t, s, a.ID)
	bv := waitDone(t, s, b.ID)
	if bv.State != StateDone {
		t.Fatalf("follower state %s (error %q)", bv.State, bv.Error)
	}
	if !bytes.Equal(av.Result, bv.Result) || av.ResultDigest != bv.ResultDigest {
		t.Fatal("follower result differs from its primary")
	}
	if av.EventsURL == "" || bv.EventsURL == "" {
		t.Fatal("dedupe lost the shared event stream")
	}
}

// TestCancelRunning: DELETE on a running job stops it promptly with a
// partial result covering the completed window prefix.
func TestCancelRunning(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)
	v, err := s.submitRun(endlessCfg(3), "")
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, v.ID)
	if _, ok := s.Cancel(v.ID); !ok {
		t.Fatal("cancel reported unknown job")
	}
	got := waitDone(t, s, v.ID)
	if got.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", got.State)
	}
	if !got.Partial || got.Result == nil {
		t.Fatalf("cancelled run carries no partial result: %+v", got)
	}
	// Cancelled (partial) results must never serve cache hits.
	again, err := s.submitRun(endlessCfg(3), "")
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Fatal("partial result was cached")
	}
	s.Cancel(again.ID)
	waitDone(t, s, again.ID)
}

// TestCancelQueued: cancelling a job still in the queue finishes it
// immediately; the worker later skips its carcass.
func TestCancelQueued(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)
	blocker, _ := s.submitRun(endlessCfg(4), "")
	waitRunning(t, s, blocker.ID)
	queued, err := s.submitRun(fastCfg(core.PB, 5), "")
	if err != nil {
		t.Fatal(err)
	}
	v, ok := s.Cancel(queued.ID)
	if !ok || v.State != StateCancelled {
		t.Fatalf("queued cancel → %+v, %v", v, ok)
	}
	s.Cancel(blocker.ID)
	waitDone(t, s, blocker.ID)
}

// TestQueueFull: submissions beyond the queue bound are rejected, not
// silently dropped or blocked.
func TestQueueFull(t *testing.T) {
	s := New(Options{Workers: 1, QueueCap: 1})
	defer shutdown(t, s)
	blocker, _ := s.submitRun(endlessCfg(6), "")
	waitRunning(t, s, blocker.ID)
	if _, err := s.submitRun(fastCfg(core.PB, 7), ""); err != nil {
		t.Fatalf("first queued submission rejected: %v", err)
	}
	if _, err := s.submitRun(fastCfg(core.PB, 8), ""); !errors.Is(err, errQueueFull) {
		t.Fatalf("over-capacity submission error = %v, want errQueueFull", err)
	}
	s.Cancel(blocker.ID)
	waitDone(t, s, blocker.ID)
}

// TestNegativeOptionsMeanDefaults: a negative QueueCap or EventCap is
// read as 0, the default, and the server runs jobs with it.
func TestNegativeOptionsMeanDefaults(t *testing.T) {
	s := New(Options{Workers: 1, QueueCap: -1, EventCap: -1})
	defer shutdown(t, s)
	if s.opts.QueueCap != 64 || s.opts.EventCap != 1<<16 {
		t.Fatalf("QueueCap %d, EventCap %d, want the defaults 64 and 65536", s.opts.QueueCap, s.opts.EventCap)
	}
	v, err := s.submitRun(fastCfg(core.PB, 9), "")
	if err != nil {
		t.Fatal(err)
	}
	if job := waitDone(t, s, v.ID); job.State != StateDone {
		t.Fatalf("state %s (error %q), want done", job.State, job.Error)
	}
	if len(jobEvents(t, s, v.ID)) == 0 {
		t.Fatal("job streamed no events")
	}
}

// TestJobTimeout:a job exceeding the per-job budget fails with a
// partial result.
func TestJobTimeout(t *testing.T) {
	s := New(Options{Workers: 1, JobTimeout: 100 * time.Millisecond})
	defer shutdown(t, s)
	v, err := s.submitRun(endlessCfg(9), "")
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, s, v.ID)
	if got.State != StateFailed {
		t.Fatalf("state %s, want failed", got.State)
	}
	if !got.Partial || got.Result == nil {
		t.Fatal("timed-out run carries no partial result")
	}
}

// TestShutdownDrain: shutdown lets running jobs finish, cancels queued
// ones, and rejects new submissions.
func TestShutdownDrain(t *testing.T) {
	s := New(Options{Workers: 1})
	running, err := s.submitRun(fastCfg(core.PB, 10), "")
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, running.ID)
	queued, err := s.submitRun(fastCfg(core.PB, 11), "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	rv, _ := s.Job(running.ID)
	if rv.State != StateDone {
		t.Errorf("running job drained to %s, want done", rv.State)
	}
	qv, _ := s.Job(queued.ID)
	if qv.State != StateDone && qv.State != StateCancelled {
		t.Errorf("queued job state %s after drain", qv.State)
	}
	if _, err := s.submitRun(fastCfg(core.PB, 12), ""); !errors.Is(err, errServerClosed) {
		t.Errorf("post-shutdown submission error = %v, want errServerClosed", err)
	}
}

// TestShutdownForceCancel: when the drain budget expires, running jobs
// are cancelled rather than awaited.
func TestShutdownForceCancel(t *testing.T) {
	s := New(Options{Workers: 1})
	v, err := s.submitRun(endlessCfg(13), "")
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, v.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain error = %v, want deadline exceeded", err)
	}
	got, _ := s.Job(v.ID)
	if got.State != StateCancelled {
		t.Fatalf("state %s after forced drain, want cancelled", got.State)
	}
}

// TestEventLogStreamAndSkip: the event log delivers everything to a
// keeping-up reader and skips ahead (reporting the gap) for one that
// fell behind its ring.
func TestEventLogStreamAndSkip(t *testing.T) {
	l := newEventLog(4)
	for i := 0; i < 10; i++ {
		l.Emit(telemetry.Event{Cycle: uint64(i), Board: -1, Wavelength: -1, Dest: -1})
	}
	buf := make([]telemetry.Event, 0, 16)
	batch, resume, skipped, closed := l.next(context.Background(), 0, buf)
	if skipped != 6 {
		t.Fatalf("skipped = %d, want 6", skipped)
	}
	if len(batch) != 4 || batch[0].Cycle != 6 || batch[3].Cycle != 9 {
		t.Fatalf("batch = %v", batch)
	}
	if closed {
		t.Fatal("log reported closed while open")
	}
	l.close()
	batch, _, _, closed = l.next(context.Background(), resume, buf)
	if len(batch) != 0 || !closed {
		t.Fatalf("after close: batch %v closed %v", batch, closed)
	}
}

// jobEvents drains a finished job's whole event log.
func jobEvents(t *testing.T, s *Server, id string) []telemetry.Event {
	t.Helper()
	log, _ := s.eventLogFor(id)
	buf := make([]telemetry.Event, 0, 4096)
	var got []telemetry.Event
	var from uint64
	for {
		batch, resume, skipped, closed := log.next(context.Background(), from, buf)
		if skipped != 0 {
			t.Fatalf("skipped %d events with an oversized ring", skipped)
		}
		got = append(got, batch...)
		from = resume
		if closed && len(batch) == 0 {
			return got
		}
	}
}

// TestOnePathIdentity: every entry point runs a Config through the same
// Runner dispatch, so the same config — flat or two-tier — yields
// byte-identical Result JSON from core.RunContext, a Runner reused after
// a run of a different shape, a sweep point and a service job, and the
// identical event stream wherever a sink can be attached.
func TestOnePathIdentity(t *testing.T) {
	flat := fastCfg(core.PB, 3)
	flat.Pattern = "complement"
	hier := fastCfg(core.PB, 3)
	hier.Tiers = []core.TierSpec{{Boards: 2, NodesPerBoard: 2}, {Boards: 2}}
	for _, tc := range []struct {
		name       string
		cfg, other core.Config
	}{
		{"flat-4x4", flat, hier},
		{"hier-2x2x2", hier, flat},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			marshal := func(res *core.Result, err error) []byte {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				data, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			want := marshal(core.RunContext(ctx, tc.cfg))

			var fresh, reused core.Runner
			wantEvs := telemetry.NewRecorder(1 << 20)
			fresh.AttachSink(wantEvs)
			if got := marshal(fresh.RunContext(ctx, tc.cfg)); !bytes.Equal(got, want) {
				t.Errorf("fresh Runner result differs:\n%s\n%s", got, want)
			}
			if _, err := reused.RunContext(ctx, tc.other); err != nil {
				t.Fatal(err)
			}
			reusedEvs := telemetry.NewRecorder(1 << 20)
			reused.AttachSink(reusedEvs)
			if got := marshal(reused.RunContext(ctx, tc.cfg)); !bytes.Equal(got, want) {
				t.Errorf("reused Runner result differs:\n%s\n%s", got, want)
			}
			if !reflect.DeepEqual(reusedEvs.Events(), wantEvs.Events()) {
				t.Errorf("reused Runner event stream differs (%d vs %d events)", len(reusedEvs.Events()), len(wantEvs.Events()))
			}

			series, err := sweep.RunContext(ctx, sweep.Request{
				Base: tc.cfg, Patterns: []string{tc.cfg.Pattern}, Modes: []core.Mode{tc.cfg.Mode}, Loads: []float64{tc.cfg.Load},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := marshal(series[0].Points[0].Result, nil); !bytes.Equal(got, want) {
				t.Errorf("sweep point result differs:\n%s\n%s", got, want)
			}

			s := New(Options{Workers: 1, EventCap: 1 << 20})
			defer shutdown(t, s)
			v, err := s.submitRun(tc.cfg, "")
			if err != nil {
				t.Fatal(err)
			}
			if job := waitDone(t, s, v.ID); !bytes.Equal(job.Result, want) {
				t.Errorf("service job result differs (state %s, error %q):\n%s\n%s", job.State, job.Error, job.Result, want)
			}
			if got := jobEvents(t, s, v.ID); !reflect.DeepEqual(got, wantEvs.Events()) {
				t.Errorf("service job event stream differs (%d vs %d events)", len(got), len(wantEvs.Events()))
			}
		})
	}
}

// TestEventStreamMatchesRecorder: the events a job streams are exactly
// the events the simulation emits.
func TestEventStreamMatchesRecorder(t *testing.T) {
	cfg := fastCfg(core.PB, 14)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder(1 << 20)
	sys.AttachSink(rec)
	sys.Run()
	want := rec.Events()

	s := New(Options{Workers: 1, EventCap: 1 << 20})
	defer shutdown(t, s)
	v, err := s.submitRun(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, v.ID)
	got := jobEvents(t, s, v.ID)
	if len(got) != len(want) {
		t.Fatalf("streamed %d events, recorder saw %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}
