// Package runner is the shared execution harness behind every CLI in
// cmd/: it owns the observability flags (-metrics, -trace,
// -debug-addr) and the runtime-control flags (-timeout) that used to
// be wired by hand in each main, installs POSIX signal handling
// (SIGINT/SIGTERM cancel the run's context; a second signal
// force-kills), and guarantees the observability outputs are flushed
// even when the run fails or is cancelled.
//
// The collectors those flags create reach the work through one value:
// Session.Obs, the tracing.Scope the body threads into the Obs field
// of each engine config. The runner installs no process-wide default
// registry, tracer, progress board or logger; the only process-wide
// hook it sets is pmf.SetMetrics, for the PMF kernels, which are free
// functions without a config. It owns no log either: cdsfd, the one
// program that logs, registers -log and -log-level itself and hands a
// log/slog logger to the server, which derives each job's log lines
// (and its job counters) from the job's store records.
//
// A CLI built on the runner has the shape
//
//	func main() { runner.Main("mytool", run) }
//
//	func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
//		fs := flag.NewFlagSet("mytool", flag.ContinueOnError)
//		fs.SetOutput(stderr)
//		rf := runner.RegisterFlags(fs)
//		// ... tool-specific flags ...
//		if err := fs.Parse(args); err != nil {
//			return err
//		}
//		return rf.Run(ctx, "mytool", stderr, func(ctx context.Context, s *runner.Session) error {
//			// the actual work, honoring ctx, with s.Obs in its configs
//		})
//	}
//
// main is reduced to exit-code translation, and run is an ordinary
// function a test can call with its own context, argument list, and
// output buffers.
package runner

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"cdsf/internal/cache"
	"cdsf/internal/metrics"
	"cdsf/internal/pmf"
	"cdsf/internal/tracing"
)

// shutdownGrace bounds how long Run waits for in-flight debug-server
// handlers after the body returns.
const shutdownGrace = 2 * time.Second

// RunFunc is the testable body of a CLI: it receives the process
// context (cancelled by SIGINT/SIGTERM), the argument list (without the
// program name), and the output streams, and returns the process error.
type RunFunc func(ctx context.Context, args []string, stdout, stderr io.Writer) error

// Main runs a CLI body under signal-driven cancellation and translates
// its error into the process exit code. It never returns.
func Main(name string, run RunFunc) {
	os.Exit(Exec(name, os.Args[1:], os.Stdout, os.Stderr, run))
}

// Exec is Main without the os.Exit: it installs the signal context,
// runs the body, prints the error (if any) to stderr, and returns the
// exit code — 0 on success and on -h/-help, nonzero otherwise
// (including cancellation and deadline expiry). A second SIGINT or
// SIGTERM while the first is still draining restores the default
// signal disposition, so it terminates the process immediately.
func Exec(name string, args []string, stdout, stderr io.Writer, run RunFunc) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// After the first signal cancels ctx, un-register the handler: the
	// drain is bounded by the user's ability to send a second signal.
	go func() {
		<-ctx.Done()
		stop()
	}()
	err := run(ctx, args, stdout, stderr)
	if err == nil {
		return 0
	}
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	return 1
}

// Flags holds the values of the shared CLI flags.
type Flags struct {
	// MetricsDest is -metrics: where to write the metrics snapshot.
	MetricsDest string
	// TraceDest is -trace: where to write the Chrome trace.
	TraceDest string
	// DebugAddr is -debug-addr: the live debug endpoint address.
	DebugAddr string
	// Timeout is -timeout: a wall-clock bound on the whole run, applied
	// as a context deadline; 0 means no bound.
	Timeout time.Duration
	// Workers is -workers (only when registered via RegisterWorkerFlags
	// or RegisterWorkers): the worker-pool size for parallel engines.
	Workers int
	// PMF is -pmf: the distribution backend for the engines that can
	// run on either (sparse is the exact default; grid trades a
	// bounded quantization error for faster kernels).
	PMF pmf.Backend
	// CacheSpec is -cache (only when registered via
	// RegisterWorkerFlags or RegisterWorkers): "" disables the
	// content-addressed solve cache, "on" enables it with the default
	// bound, and a size like "256MiB" or "1GiB" sets the byte bound.
	CacheSpec string
}

// RegisterFlags installs the shared observability and runtime flags
// (-metrics, -trace, -debug-addr, -timeout, -pmf) on fs and returns
// the struct their values land in.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{PMF: pmf.BackendSparse}
	fs.StringVar(&f.MetricsDest, "metrics", "", `collect runtime metrics and write them to this destination: "-" or "json" for JSON on stdout, "csv" for CSV on stdout, or a file path (.csv for CSV, JSON otherwise)`)
	fs.StringVar(&f.TraceDest, "trace", "", `record span timelines and write Chrome Trace Event JSON (chrome://tracing, Perfetto) to this destination: "-" for stdout or a file path`)
	fs.StringVar(&f.DebugAddr, "debug-addr", "", `serve live debug endpoints (/debug/pprof/*, /metrics, /progress, /trace) on this address, e.g. ":6060"`)
	fs.DurationVar(&f.Timeout, "timeout", 0, `abort the run after this wall-clock duration (e.g. 30s, 5m); the partial run still flushes -metrics and -trace (0: no limit)`)
	fs.TextVar(&f.PMF, "pmf", pmf.BackendSparse, `PMF backend for the Stage-I engines: "sparse" (exact pulses, bit-identical to earlier releases) or "grid" (dense fixed-step lattice: faster kernels within the documented quantization-error bound)`)
	return f
}

// RegisterWorkerFlags additionally installs -workers and -cache, for
// CLIs whose -workers flag means the worker-pool size of the parallel
// engines (dlssim's -workers is the simulated group size and is NOT
// this flag, and dlssim has no solve to cache). The default is
// runtime.NumCPU(); results are identical for any value.
func RegisterWorkerFlags(fs *flag.FlagSet) *Flags {
	f := RegisterFlags(fs)
	f.RegisterWorkers(fs)
	return f
}

// RegisterWorkers installs the -workers pool-size flag and the -cache
// solve-cache flag on fs: the programs whose engines run a worker pool
// are the ones that solve, and so the ones a cache serves.
func (f *Flags) RegisterWorkers(fs *flag.FlagSet) {
	fs.IntVar(&f.Workers, "workers", runtime.NumCPU(), "worker pool size for the parallel engines (results are identical for any value)")
	fs.StringVar(&f.CacheSpec, "cache", "", `content-addressed solve cache: "on" for the default 32MiB bound, or a size like "64MiB"/"1GiB"; repeated identical work is replayed bit-identically from cache (empty: disabled)`)
}

// Session exposes the collectors Run created, for the body to thread
// into configs: Obs goes into the Obs field of ra.Problem, sim.Config,
// core.StageIIConfig and the other engine configs. Any of them may be
// nil when the corresponding flag is unset.
type Session struct {
	// Obs is the run's instrumentation scope. Obs.Metrics is non-nil
	// when -metrics or -debug-addr was given, Obs.Tracer when -trace
	// or -debug-addr was given, and Obs.Progress (the board behind the
	// debug server's /progress) when -debug-addr was given.
	Obs tracing.Scope
	// Cache is the content-addressed solve cache, non-nil when -cache
	// was given. Bodies thread it into ra.Problem.Cache,
	// core.StageIIConfig.Cache, or server.Options.Cache; seeded results
	// are bit-identical with it on or off.
	Cache *cache.Cache
}

// Run executes body inside an observability session derived from the
// flags:
//
//   - with -metrics or -debug-addr, a metrics registry is created as
//     Session.Obs.Metrics and installed as the sink of the pmf
//     kernels' counters (pmf.SetMetrics, the one process-wide hook);
//   - with -trace or -debug-addr, a tracer is created as
//     Session.Obs.Tracer;
//   - with -debug-addr, a progress board is created as
//     Session.Obs.Progress and the live debug HTTP server is started
//     (readiness is announced on stderr);
//   - with -timeout, ctx is bounded by context.WithTimeout.
//
// The -metrics and -trace outputs are ALWAYS written — body failing or
// being cancelled does not lose the observability of the partial run —
// and the debug server is shut down gracefully (bounded by
// shutdownGrace). The returned error joins the body's error with any
// flush or shutdown error.
func (f *Flags) Run(ctx context.Context, name string, stderr io.Writer, body func(ctx context.Context, s *Session) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Session{}
	if f.MetricsDest != "" || f.DebugAddr != "" {
		s.Obs.Metrics = metrics.NewRegistry()
		pmf.SetMetrics(s.Obs.Metrics)
		defer pmf.SetMetrics(nil)
	}
	if f.TraceDest != "" || f.DebugAddr != "" {
		s.Obs.Tracer = tracing.NewSized(0, s.Obs.Metrics)
	}
	if f.CacheSpec != "" {
		c, err := f.buildCache(s.Obs.Metrics)
		if err != nil {
			return err
		}
		s.Cache = c
	}
	var srv *tracing.DebugServer
	var srvErr error
	if f.DebugAddr != "" {
		s.Obs.Progress = tracing.NewProgress()
		srv, srvErr = tracing.StartDebug(f.DebugAddr, s.Obs.Metrics, s.Obs.Progress, s.Obs.Tracer)
		if srvErr == nil {
			fmt.Fprintf(stderr, "%s: debug endpoints on http://%s/\n", name, srv.Addr())
		}
	}

	var bodyErr error
	if srvErr == nil {
		runCtx := ctx
		if f.Timeout > 0 {
			var cancel context.CancelFunc
			runCtx, cancel = context.WithTimeout(ctx, f.Timeout)
			defer cancel()
		}
		bodyErr = body(runCtx, s)
	}

	// Flush observability unconditionally: a failed or cancelled run's
	// partial metrics and trace are exactly what a postmortem needs.
	flushErr := errors.Join(
		metrics.WriteTo(s.Obs.Metrics, f.MetricsDest),
		tracing.WriteTo(s.Obs.Tracer, f.TraceDest),
	)

	var downErr error
	if srv != nil {
		downCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		downErr = srv.Shutdown(downCtx)
		cancel()
	}
	return errors.Join(srvErr, bodyErr, flushErr, downErr)
}

// buildCache resolves the -cache spec into a cache wired to the
// session's metrics registry (which may be nil).
func (f *Flags) buildCache(reg *metrics.Registry) (*cache.Cache, error) {
	opts := cache.Options{Metrics: reg}
	switch f.CacheSpec {
	case "on", "default":
		// Default bounds.
	default:
		n, err := cache.ParseSize(f.CacheSpec)
		if err != nil {
			return nil, fmt.Errorf("-cache: %w", err)
		}
		opts.MaxBytes = n
	}
	return cache.New(opts), nil
}
