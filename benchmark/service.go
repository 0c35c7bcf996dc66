package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
)

// server is one erapid-serve child on a free loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	waited chan error
}

var reListen = regexp.MustCompile(`listening on (http://127\.0\.0\.1:\d+)`)

// startServer execs erapid-serve on port 0, reads the address it printed
// and waits until /v1/healthz answers.
func startServer(ctx context.Context, bin, dir string) (*server, error) {
	s := &server{waited: make(chan error, 1)}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(serviceClients), "-cache", "256", "-log=false")
	s.cmd.Dir = dir
	s.cmd.Stderr = &s.stderr
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	go func() {
		_, _ = io.Copy(io.Discard, stdout)
		s.waited <- s.cmd.Wait()
	}()
	m := reListen.FindStringSubmatch(line)
	if err != nil || m == nil {
		s.kill()
		return nil, fmt.Errorf("erapid-serve did not announce its address: %q %v\n%s", line, err, s.stderr.Bytes())
	}
	s.base = m[1]
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(s.base + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("erapid-serve never became healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.waited
}

// stop sends SIGTERM and waits for the drain to finish. Anything but a
// clean exit within the limit is reported (and the child killed, so no
// process outlives the benchmark).
func (s *server) stop() []string {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return []string{"erapid-serve: SIGTERM: " + err.Error()}
	}
	select {
	case err := <-s.waited:
		if err != nil {
			return []string{fmt.Sprintf("erapid-serve: unclean exit after SIGTERM: %v: %s", err, bytes.TrimSpace(s.stderr.Bytes()))}
		}
		if !bytes.Contains(s.stderr.Bytes(), []byte("erapid-serve: stopped")) {
			return []string{"erapid-serve: exited without completing its drain"}
		}
		return nil
	case <-time.After(30 * time.Second):
		s.kill()
		return []string{"erapid-serve: still running 30 s after SIGTERM (killed)"}
	}
}

// cpuSeconds is the CPU time the server's threads have run so far, summed
// from /proc/<pid>/task/*/schedstat (nanoseconds on a core). The utime and
// stime of /proc/<pid>/stat would do but tick in hundredths of a second,
// a percent of a pass.
func (s *server) cpuSeconds() float64 {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.cmd.Process.Pid))
	var ns float64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if f := strings.Fields(string(data)); len(f) > 0 {
			v, _ := strconv.ParseFloat(f[0], 64)
			ns += v
		}
	}
	return ns / 1e9
}

// parseProm reads a Prometheus text exposition into sample name (labels
// included, as written) -> value.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: sample %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// promDelta is after minus before, sample by sample; a sample absent
// from before counts from zero.
func promDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for name, v := range after {
		d[name] = v - before[name]
	}
	return d
}

func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// opClass is one of the four request classes of the service-mix schedule.
type opClass int

const (
	classCold   opClass = iota // uncached, events read with ?kinds=phase
	classStream                // uncached, full NDJSON event stream read to EOF
	classCached                // config digest already in the result cache
	classDedup                 // same new config POSTed on both connections at once
	numClasses
)

var classNames = [numClasses]string{"cold", "stream", "cached", "dedup"}

// rendezvous makes the two halves of a dedup pair POST together.
type rendezvous struct{ wg sync.WaitGroup }

func newRendezvous() *rendezvous {
	r := &rendezvous{}
	r.wg.Add(serviceClients)
	return r
}

func (r *rendezvous) arrive() {
	r.wg.Done()
	r.wg.Wait()
}

// svcOp is one scheduled request.
type svcOp struct {
	class      opClass
	body       []byte
	pair       *rendezvous // classDedup
	wantDigest string      // classCached: the digest recorded when the config was primed
}

// opRecord is what a client observed of one op.
type opRecord struct {
	class      opClass
	latency    float64 // POST sent -> result body received
	submit     float64 // POST round trip
	bytes      int     // event-stream bytes read
	events     int     // event-stream lines read
	follower   bool    // answered by dedupe or the cache instead of simulating
	digest     string
	nodeCycles float64
	problems   []string
}

// jobView is the part of the service's job document the client reads.
type jobView struct {
	ID           string          `json:"id"`
	State        string          `json:"state"`
	Cached       bool            `json:"cached"`
	DedupeOf     string          `json:"dedupe_of"`
	ResultDigest string          `json:"result_digest"`
	Error        string          `json:"error"`
	Result       json.RawMessage `json:"result"`
}

// client is one closed-loop caller with its own connection.
type client struct {
	http *http.Client
	base string
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{base: base, tr: tr, http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

// call performs one HTTP request under a span and returns the body.
func (c *client) call(ctx context.Context, parent int, method, path string, body []byte) ([]byte, int, error) {
	name := method + " " + path
	if i := strings.Index(path, "/jobs/"); i >= 0 {
		// One span name per route, not per job id.
		name = method + " /v1/jobs/{id}" + strings.TrimLeft(path[i+len("/jobs/"):], "j0123456789")
	}
	sp := c.tr.begin("service.http "+name, parent)
	defer c.tr.end(sp)
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// do runs one op to its result and checks it.
func (c *client) do(ctx context.Context, op svcOp, parent int, nodes int, bound float64) opRecord {
	rec := opRecord{class: op.class}
	sp := c.tr.begin("service.op "+classNames[op.class], parent)
	defer c.tr.end(sp)
	fail := func(format string, args ...any) opRecord {
		rec.problems = append(rec.problems, "service "+classNames[op.class]+" op: "+fmt.Sprintf(format, args...))
		return rec
	}
	if op.pair != nil {
		op.pair.arrive()
	}
	t0 := time.Now()
	data, code, err := c.call(ctx, sp, "POST", "/v1/runs", op.body)
	rec.submit = time.Since(t0).Seconds()
	if err != nil || code >= 400 {
		return fail("POST /v1/runs: HTTP %d %v %s", code, err, data)
	}
	var view jobView
	if err := json.Unmarshal(data, &view); err != nil {
		return fail("POST /v1/runs: %v", err)
	}
	rec.follower = view.Cached || view.DedupeOf != ""
	if view.State != "done" {
		events := "/v1/jobs/" + view.ID + "/events"
		if op.class != classStream {
			events += "?kinds=phase"
		}
		stream, code, err := c.call(ctx, sp, "GET", events, nil)
		if err != nil || code >= 400 {
			return fail("GET events: HTTP %d %v", code, err)
		}
		rec.bytes, rec.events = len(stream), bytes.Count(stream, []byte("\n"))
		data, code, err = c.call(ctx, sp, "GET", "/v1/jobs/"+view.ID, nil)
		if err != nil || code >= 400 {
			return fail("GET job: HTTP %d %v", code, err)
		}
		if err := json.Unmarshal(data, &view); err != nil {
			return fail("GET job: %v", err)
		}
	}
	rec.latency = time.Since(t0).Seconds()
	rec.digest = view.ResultDigest

	if view.State != "done" {
		return fail("job %s ended %s: %s", view.ID, view.State, view.Error)
	}
	var res core.Result
	if err := json.Unmarshal(view.Result, &res); err != nil {
		return fail("job %s result: %v", view.ID, err)
	}
	rec.problems = append(rec.problems, checkSim("service job "+view.ID, simStatsOf(&res), bound, false)...)
	if res.DeliveredFraction != 1 {
		fail("job %s delivered fraction %v on a fault-free run", view.ID, res.DeliveredFraction)
	}
	switch op.class {
	case classCached:
		if !view.Cached {
			fail("job %s re-simulated a primed config", view.ID)
		}
		if view.ResultDigest != op.wantDigest {
			fail("job %s cached digest %s differs from the cold one %s", view.ID, view.ResultDigest, op.wantDigest)
		}
	case classCold, classStream:
		if rec.follower {
			fail("job %s was answered without simulating", view.ID)
		}
	}
	if !rec.follower {
		rec.nodeCycles = float64(nodes) * float64(res.Cycles)
	}
	return rec
}

// svcState is a started, primed server with its two clients.
type svcState struct {
	b       *bench
	w       workload
	dir     string
	srv     *server
	clients [serviceClients]*client
	tr      *tracer
	bound   float64
	// primed are the configs whose results the set-up put in the cache.
	primed []svcOp
	pass   uint64

	// Per-class latencies and POST round trips over all timed passes.
	lat    [numClasses][]float64
	submit []float64
	bytes  int
	events int
	// digests of every op of the last pass, in schedule order.
	digests []string
	// prom accumulates the /metrics deltas of the timed passes. Only the
	// traced run scrapes: the two extra requests per pass stay out of the
	// untraced numbers.
	prom map[string]float64
}

// jobBody renders the job whose seed derives from the benchmark seed and
// the op's position (pass, index in the pass). The two are packed into
// one word because rng.Mix is injective in a single id but not across
// several small ones.
func (st *svcState) jobBody(pass, index uint64) []byte {
	seed := rng.Mix(st.b.seed, pass<<20|index)
	body, err := json.Marshal(st.w.sim.config(seed))
	if err != nil {
		panic(err)
	}
	return body
}

// schedule generates one pass: the mix's ops in a seeded order, every
// uncached body carrying a seed no earlier op used. Both halves of a
// dedup pair are adjacent, so the two clients pick them up together.
func (st *svcState) schedule(pass uint64) []svcOp {
	m := st.w.mix
	r := rng.New(rng.Mix(st.b.seed, pass))
	var slots []svcOp
	for i := 0; i < m.Cold; i++ {
		slots = append(slots, svcOp{class: classCold})
	}
	for i := 0; i < m.Stream; i++ {
		slots = append(slots, svcOp{class: classStream})
	}
	for i := 0; i < m.Cached; i++ {
		slots = append(slots, svcOp{class: classCached})
	}
	for i := 0; i < m.DedupPairs; i++ {
		slots = append(slots, svcOp{class: classDedup})
	}
	order := make([]int, len(slots))
	r.Perm(order)
	var ops []svcOp
	for n, i := range order {
		op := slots[i]
		switch op.class {
		case classCached:
			op = st.primed[r.Intn(len(st.primed))]
			op.class = classCached
			ops = append(ops, op)
		case classDedup:
			op.body = st.jobBody(pass, uint64(n))
			op.pair = newRendezvous()
			ops = append(ops, op, op)
		default:
			op.body = st.jobBody(pass, uint64(n))
			ops = append(ops, op)
		}
	}
	return ops
}

// run executes ops closed loop: each client sends its next request only
// after the previous one's result arrived.
func (st *svcState) run(ctx context.Context, ops []svcOp, parent int) []opRecord {
	next := make(chan int, len(ops))
	for i := range ops {
		next <- i
	}
	close(next)
	recs := make([]opRecord, len(ops))
	var wg sync.WaitGroup
	for _, c := range st.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := range next {
				recs[i] = c.do(ctx, ops[i], parent, st.w.sim.nodes(), st.bound)
			}
		}(c)
	}
	wg.Wait()
	return recs
}

// setupService starts the server, primes the cache and runs one untimed
// cold and one cached op.
func (b *bench) setupService(ctx context.Context, w workload, dir string, ref refs, tr *tracer) (*svcState, error) {
	st := &svcState{b: b, w: w, dir: dir, tr: tr, bound: ref.bound}
	return st, st.start(ctx)
}

func (st *svcState) start(ctx context.Context) error {
	sp := st.tr.begin("service.start", 0)
	srv, err := startServer(ctx, st.b.bin("erapid-serve"), st.dir)
	st.tr.end(sp)
	if err != nil {
		return err
	}
	st.srv = srv
	for i := range st.clients {
		st.clients[i] = newClient(srv.base, st.tr)
	}
	sp = st.tr.begin("service.prime", 0)
	defer st.tr.end(sp)
	var prime []svcOp
	for i := 0; i < st.w.mix.Primed; i++ {
		prime = append(prime, svcOp{class: classCold, body: st.jobBody(0, uint64(i))})
	}
	for i, rec := range st.run(ctx, prime, sp) {
		if len(rec.problems) > 0 {
			st.srv.stop()
			return fmt.Errorf("priming the cache: %v", rec.problems)
		}
		prime[i].wantDigest = rec.digest
	}
	st.primed = prime
	warm := []svcOp{{class: classCold, body: st.jobBody(0, uint64(st.w.mix.Primed))}, st.primed[0]}
	warm[1].class = classCached
	for _, rec := range st.run(ctx, warm, sp) {
		if len(rec.problems) > 0 {
			st.srv.stop()
			return fmt.Errorf("warm-up op: %v", rec.problems)
		}
	}
	return nil
}

// op is one timed pass of the schedule. Every request in it is an
// attempted operation.
//
// Each pass gets a server of its own, set up afresh: erapid-serve keeps
// every finished job and its event log, so on one long-lived server each
// pass would run against a bigger heap than the last and the passes would
// not be repetitions of one measurement. The restart is set-up, timed as
// such and not as part of the pass.
func (st *svcState) op(ctx context.Context, o *outcome) {
	if st.pass > 0 {
		o.op(st.srv.stop())
		t0 := time.Now()
		if err := st.start(ctx); err != nil {
			o.op([]string{"service-mix: set-up for the next pass: " + err.Error()})
			st.srv = nil
			return
		}
		o.add("setup_s", time.Since(t0).Seconds())
	}
	st.pass++
	ops := st.schedule(st.pass)
	var before map[string]float64
	if st.tr != nil {
		before, _ = st.srv.scrape()
	}
	sp := st.tr.begin("service.pass", 0)
	cpu0 := st.srv.cpuSeconds()
	t0 := time.Now()
	recs := st.run(ctx, ops, sp)
	wall := time.Since(t0).Seconds()
	cpu := st.srv.cpuSeconds() - cpu0
	st.tr.end(sp)
	if before != nil {
		if after, err := st.srv.scrape(); err == nil {
			if st.prom == nil {
				st.prom = make(map[string]float64)
			}
			for name, d := range promDelta(before, after) {
				st.prom[name] += d
			}
		}
	}

	var nodeCycles float64
	st.digests = st.digests[:0]
	for i, rec := range recs {
		bad := rec.problems
		if rec.class == classDedup && i > 0 && ops[i-1].pair == ops[i].pair {
			first := recs[i-1]
			if first.digest != rec.digest {
				bad = append(bad, fmt.Sprintf("service-mix dedup: the pair's result digests differ (%s, %s)", first.digest, rec.digest))
			}
			// The pair's latency is the answered-without-simulating half's;
			// when the first result was already cached, either is.
			follower := rec
			if first.follower && !rec.follower {
				follower = first
			}
			if len(first.problems)+len(bad) == 0 {
				st.lat[classDedup] = append(st.lat[classDedup], follower.latency)
			}
		}
		o.op(bad)
		st.digests = append(st.digests, rec.digest)
		if len(bad) > 0 {
			continue
		}
		nodeCycles += rec.nodeCycles
		st.submit = append(st.submit, rec.submit)
		st.bytes += rec.bytes
		st.events += rec.events
		if rec.class != classDedup {
			st.lat[rec.class] = append(st.lat[rec.class], rec.latency)
		}
	}
	o.add("run_wall_s", wall)
	o.add("run_cpu_s", cpu)
	o.add("peak_rss_mb", peakRSSMB(st.srv.cmd.Process.Pid))
	o.add("node_cycles_per_s", nodeCycles/wall)
	o.add("jobs_per_s", float64(len(recs))/wall)
}

// close stops the server. A drain that does not complete, or a child
// that has to be killed, is a failed operation.
func (st *svcState) close(o *outcome) {
	if st.srv != nil {
		o.op(st.srv.stop())
	}
	for c := classCold; c < numClasses; c++ {
		if n := len(st.lat[c]); n > 0 {
			o.notes = append(o.notes, fmt.Sprintf("%s latency p50 %.4f s, p%g %.4f s (n=%d)",
				classNames[c], median(st.lat[c]), tailPercentile(n), percentile(st.lat[c], tailPercentile(n)), n))
		}
	}
}
