// Command cdsfd serves the CDSF framework as a long-running scheduling
// service: a versioned HTTP/JSON job API (internal/api, v1) over a
// bounded job queue and executor pool (internal/server).
//
// Usage:
//
//	cdsfd                          # serve on :8080, jobs in memory
//	cdsfd -addr 127.0.0.1:9090 -queue 32 -executors 4
//	cdsfd -store /var/lib/cdsfd    # WAL-backed: jobs survive kill -9
//	cdsfd -metrics m.json -trace t.json -drain-timeout 1m
//	cdsfd -log cdsfd.log -log-level debug
//
// Submit work with POST /v1/solve, /v1/simulate, or /v1/scenario (202
// plus a job envelope; 429 with Retry-After when the queue is full),
// poll GET /v1/jobs/{id}, cancel with DELETE /v1/jobs/{id}, and list
// with GET /v1/jobs?state=queued,running (&limit=N&after=ID paginates).
// Every job keeps an event log derived from its lifecycle records in
// the job store: GET /v1/jobs/{id}/events returns it as JSON, and
// ?follow=1 streams it live as Server-Sent Events (reconnect with
// Last-Event-ID to resume). GET /v1/healthz reports queue depth,
// inflight jobs, drain or degraded state, cache counters, and the job
// store's backend and replay stats. With -log, the service also writes
// a log/slog JSON log: one line per lifecycle record of every job
// ("job accepted", "job queued", ... at -log-level info; "job progress"
// and one line per request at debug). cdsfd is the one program in cmd/
// that logs, so -log and -log-level are its own flags.
// The debug endpoints every CLI exposes behind -debug-addr (/metrics,
// /progress, /trace, /debug/pprof/*) are mounted on the same address.
//
// With -store DIR the job lifecycle is journaled to an append-only WAL
// under DIR: a 202 means the job is fsynced, and a restart replays the
// journal, re-serves every finished result bit-identically together
// with its event history, and re-enqueues the jobs a crash interrupted
// (seeded jobs re-run to the same bytes — DESIGN.md §12). Without
// -store, jobs live in process memory exactly as before.
//
// SIGINT/SIGTERM (and -timeout) drain the service: admission stops
// (503), queued jobs are cancelled, running jobs get -drain-timeout to
// finish before their contexts are cancelled, and the -metrics and
// -trace outputs are flushed before the nonzero exit — the same
// cancellation contract as every other CLI in cmd/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"cdsf/internal/api"
	"cdsf/internal/runner"
	"cdsf/internal/server"
	"cdsf/internal/store"
)

func main() { runner.Main("cdsfd", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cdsfd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "HTTP listen address for the v1 job API (e.g. 127.0.0.1:0 for a free port)")
	queue := fs.Int("queue", 16, "bound on jobs waiting for an executor; submissions beyond it answer 429")
	executors := fs.Int("executors", 2, "number of jobs executed concurrently")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long running jobs may finish after a shutdown signal before their contexts are cancelled")
	storeDir := fs.String("store", "", "journal the job lifecycle to an append-only WAL under this directory and recover interrupted jobs on restart (empty: jobs live in process memory)")
	logDest := fs.String("log", "", `write the service's JSON log (one line per job transition) to this destination: "-" for stderr or a file path (empty: no log; stdout is never touched)`)
	var logLevel slog.Level
	fs.TextVar(&logLevel, "log-level", slog.LevelInfo, `minimum severity of -log lines: "debug", "info", "warn" or "error"`)
	rf := runner.RegisterWorkerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return rf.Run(ctx, "cdsfd", stderr, func(ctx context.Context, s *runner.Session) (err error) {
		var logger *slog.Logger
		if *logDest != "" {
			sink := stderr
			if *logDest != "-" {
				f, err := os.Create(*logDest)
				if err != nil {
					return fmt.Errorf("-log: %w", err)
				}
				defer func() { err = errors.Join(err, f.Close()) }()
				sink = f
			}
			logger = slog.New(slog.NewJSONHandler(sink, &slog.HandlerOptions{Level: logLevel}))
		}
		var js store.JobStore
		if *storeDir != "" {
			w, err := store.OpenWAL(*storeDir, store.WALOptions{Metrics: s.Obs.Metrics})
			if err != nil {
				return err
			}
			if st := w.Stats(); st.ReplayedRecords > 0 {
				fmt.Fprintf(stderr, "cdsfd: replayed %d journal records (%d jobs, %d interrupted)\n",
					st.ReplayedRecords, st.ReplayedJobs, st.RecoveredJobs)
			}
			js = w
		}
		srv := server.New(server.Options{
			Queue:      *queue,
			Executors:  *executors,
			Workers:    rf.Workers,
			PMFBackend: rf.PMF,
			Metrics:    s.Obs.Metrics,
			Tracer:     s.Obs.Tracer,
			Cache:      s.Cache,
			Logger:     logger,
			Store:      js,
		})
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			srv.Close()
			return err
		}
		httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
		// The readiness line carries the resolved port (for -addr ...:0)
		// and marks the point from which requests are accepted.
		fmt.Fprintf(stderr, "cdsfd: serving the %s job API on http://%s/\n", api.Version, ln.Addr())

		serveErr := make(chan error, 1)
		go func() { serveErr <- httpSrv.Serve(ln) }()

		select {
		case err := <-serveErr:
			// The listener died on its own; nothing is serving anymore,
			// so cancel whatever was running and report the cause.
			srv.Drain(0)
			return err
		case <-ctx.Done():
		}

		// Drain sequence: jobs first (admission already answers 503, and
		// polling keeps working so clients see their jobs reach terminal
		// states), then the HTTP server itself.
		fmt.Fprintf(stderr, "cdsfd: draining jobs (timeout %s)\n", *drainTimeout)
		srv.Drain(*drainTimeout)
		downCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(downCtx); err != nil {
			_ = httpSrv.Close()
		}
		// Propagate the cancellation cause so the process exits nonzero,
		// after runner.Run flushes -metrics and -trace.
		return fmt.Errorf("serving interrupted: %w", context.Cause(ctx))
	})
}
