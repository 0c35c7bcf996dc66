package cli

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// serveCmd runs the simulator as a long-lived HTTP job service: submit
// configurations, stream their live telemetry, and fetch deterministic
// results — identical configs are answered from a content-addressed
// cache without re-simulating.
//
//	erapid-serve -addr 127.0.0.1:8080
//
//	curl -s localhost:8080/v1/runs -d '{"mode":"P-B","load":0.7}'
//	curl -s localhost:8080/v1/jobs/j000001
//	curl -sN localhost:8080/v1/jobs/j000001/events
//	curl -s -X DELETE localhost:8080/v1/jobs/j000001
//	curl -s localhost:8080/metrics
//
// Observability: /metrics serves the Prometheus text exposition (job
// throughput, queue wait and run-duration histograms, cache hit/miss,
// queue depth, Go runtime stats); every request carries an
// X-Request-Id and is logged as one structured JSON line on stderr
// (disable with -log=false). An optional -admin-addr listener (keep it
// on loopback) repeats /metrics and adds net/http/pprof under
// /debug/pprof/.
//
// SIGINT/SIGTERM drain gracefully: intake stops (503), queued jobs are
// cancelled, running jobs finish (or are cancelled at their next
// reconfiguration-window boundary when -drain expires).
func serveCmd(args []string) error {
	f := newFlags("erapid-serve", core.Config{})
	var (
		addr      = f.String("addr", "127.0.0.1:8080", "listen address")
		adminAddr = f.String("admin-addr", "", "optional admin listen address serving /metrics and /debug/pprof/ (keep on loopback)")
		opts      service.Options
		logOn     = f.Bool("log", true, "structured JSON request/job logs on stderr")
		drainFor  = f.Duration("drain", 30*time.Second, "graceful drain budget on SIGTERM before running jobs are force-cancelled")
	)
	f.count(&opts.Workers, "workers", 0, "concurrently running jobs (0 = GOMAXPROCS)")
	// A negative value is a typo, not a setting: service.Options would
	// read -queue -5 as the default and -job-timeout -1s as no limit,
	// and -drain -1s would force-cancel running jobs at once.
	f.count(&opts.QueueCap, "queue", 64, "jobs queued beyond the running ones before submissions get 503")
	f.DurationVar(&opts.JobTimeout, "job-timeout", 0, "per-job wall-clock limit (0 = none)")
	f.nonNegative("job-timeout")
	f.nonNegative("drain")
	f.IntVar(&opts.CacheCap, "cache", 256, "content-addressed result cache entries (-1 disables)")
	stop, err := f.parse(args)
	if err != nil {
		return err
	}
	defer stop()

	if *logOn {
		opts.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	srv := service.New(opts)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Printf("erapid-serve listening on http://%s (%d workers)\n", ln.Addr(), srv.Workers())

	var adminSrv *http.Server
	if *adminAddr != "" {
		adminLn, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return err
		}
		mux := adminMux()
		mux.Handle("GET /metrics", srv.MetricsHandler())
		adminSrv = &http.Server{Handler: mux}
		fmt.Printf("erapid-serve admin on http://%s (/metrics, /debug/pprof/)\n", adminLn.Addr())
		go func() { _ = adminSrv.Serve(adminLn) }()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stopSignals := signalContext()
	defer stopSignals()
	select {
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-ctx.Done():
	}
	stopSignals()

	// Drain the job queue first so in-flight event streams complete,
	// then shut the HTTP listener down.
	fmt.Fprintln(os.Stderr, "erapid-serve: draining (running jobs finish, queued jobs cancel)")
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainFor)
	defer cancelDrain()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "erapid-serve: drain budget expired; running jobs were force-cancelled")
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil {
		_ = httpSrv.Close()
	}
	if adminSrv != nil {
		_ = adminSrv.Close()
	}
	fmt.Fprintln(os.Stderr, "erapid-serve: stopped")
	return nil
}

// adminMux returns a mux serving the net/http/pprof endpoints under
// /debug/pprof/, for the loopback admin listener. Handlers are
// registered explicitly rather than through the package's
// DefaultServeMux init side effect, so profiling is never exposed on an
// application mux by accident.
func adminMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
