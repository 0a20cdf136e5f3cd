// Package server turns the CDSF framework into a long-running
// scheduling service: a bounded job queue and executor pool driving
// the ctx-first engine entry points (ra.SolveContext,
// sim.RunManyContext via core's case driver, core.RunScenarioContext)
// behind the versioned HTTP/JSON API defined in internal/api.
//
// The lifecycle of a job is queued -> running -> done|failed|cancelled.
// Admission is backpressured: when the queue is full the service
// answers 429 with a Retry-After header instead of buffering without
// bound, and while draining it answers 503. Every job runs under its
// own context derived from the server's base context, so DELETE
// cancels one job and Drain cancels them all — reusing the repository's
// cancellation contract (DESIGN.md §7): a cancelled engine drains its
// worker pools and returns an error wrapping context.Canceled, which
// the server maps to the cancelled state.
//
// Job state lives in a pluggable store.JobStore: every lifecycle
// transition is one store record, written in one place (record). The
// envelopes the API serves and each job's event log are materialized
// from those records, and the server.jobs_* counters and the job's log
// lines are derived from them as they are appended. The default
// memory store reproduces the original in-process behaviour exactly
// (jobs die with the process); the WAL store journals each transition
// durably, and New replays interrupted jobs from the journal after a
// crash — seeded jobs re-run to bit-identical result bytes (DESIGN.md
// §12).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cdsf/internal/api"
	"cdsf/internal/cache"
	"cdsf/internal/events"
	"cdsf/internal/metrics"
	"cdsf/internal/pmf"
	"cdsf/internal/store"
	"cdsf/internal/tracing"
)

// Options configures a Server.
type Options struct {
	// Queue bounds the number of jobs waiting for an executor (running
	// jobs do not count). Submissions beyond the bound are rejected
	// with 429; the queue never grows without limit. Non-positive
	// means 16.
	Queue int
	// Executors is the number of jobs executed concurrently.
	// Non-positive means 2: jobs are themselves internally parallel,
	// so a small executor pool saturates the machine while keeping
	// per-job latency predictable.
	Executors int
	// Workers is the default engine worker-pool size per job, used
	// when a request does not set its own. Non-positive means
	// runtime.NumCPU(). Results are identical for any value.
	Workers int
	// PMFBackend is the default Stage-I distribution backend for jobs
	// whose request leaves pmf_backend empty. The zero value is the
	// sparse (exact) backend, keeping seeded service results
	// bit-identical to earlier releases.
	PMFBackend pmf.Backend
	// Metrics receives the server's own counters and, through each
	// job's scope, every job's engine counters. Nil means a fresh
	// registry (the /metrics endpoint then reports only this server).
	Metrics *metrics.Registry
	// Tracer receives every job's spans through the job's scope; nil
	// disables tracing.
	Tracer *tracing.Tracer
	// Cache is the content-addressed solve cache. When set, a repeat of
	// a byte-identical request is answered straight from the result
	// tier at admission time — an already-done job, no queue trip — and
	// solve/scenario jobs share warm Stage-I evaluation tables across
	// deadlines, heuristics, and availability cases. Envelopes gain a
	// "cache" block with the job's key and hit counts. Nil disables
	// caching; envelopes and behaviour are then unchanged.
	Cache *cache.Cache
	// Logger receives the service's structured log: one line per job
	// lifecycle record (progress at debug, failed at error, the rest at
	// info), per-request lines at debug, and the few failures no record
	// carries. Nil disables logging; results and response bodies are
	// byte-identical either way.
	Logger *slog.Logger
	// Store is the job store behind the lifecycle: every transition is
	// appended to it and envelopes are read back from it. Nil means a
	// fresh in-memory store (the original non-durable behaviour); cdsfd
	// -store wires in the WAL store, whose interrupted jobs New
	// re-enqueues before the executor pool starts. The server owns the
	// store from here on and closes it at the end of Drain.
	Store store.JobStore
}

// Server owns the job queue and the executor pool; job state lives in
// the store. Create one with New and expose it with Handler; stop it
// with Drain.
type Server struct {
	opts  Options
	store store.JobStore

	queue    chan *job
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	draining atomic.Bool

	// closeStore guards the single store close at the end of Drain
	// (Drain itself is idempotent).
	closeStore sync.Once

	// baseCtx parents every job context; baseCancel is the drain
	// hammer.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// inflight counts jobs currently holding an executor and
	// httpInflight counts requests currently in a handler; queueDepth
	// mirrors len(queue) into the metrics registry for the RED gauges
	// and /v1/healthz.
	inflight     atomic.Int64
	httpInflight atomic.Int64
	queueDepth   *metrics.Gauge
	inflightG    *metrics.Gauge

	// storeErrors counts failed store appends; while it is non-zero
	// /v1/healthz reports "degraded".
	storeErrors *metrics.Counter

	// admitMu serializes admissions: the queue-capacity check, the
	// durable accepted append, and the queue push happen as one unit,
	// so a 202 means the job is journaled AND has a queue slot.
	admitMu sync.Mutex

	// mu guards the runtime job map and serializes lifecycle decisions
	// (the check-then-append sequences); the store serializes its own
	// state internally. The map holds only queued and running jobs: an
	// entry is deleted when its job reaches a terminal state, so a
	// finished job's run closure (and the problem it captured) does not
	// outlive it.
	mu   sync.Mutex
	jobs map[string]*job

	// wallMu guards the ring of recent job wall times feeding the
	// Retry-After estimate (separate from mu: admission reads it while
	// holding no job state).
	wallMu     sync.Mutex
	recentWall [wallWindow]time.Duration
	wallCount  int // total recorded; ring index is wallCount % wallWindow
}

// wallWindow is the size of the rolling window of job wall times
// behind the Retry-After estimate.
const wallWindow = 32

// progressInterval is how often a running job's progress board is
// sampled into the store, and so into its event log (only when the job
// tracks progress and the snapshot changed). One sample per
// replication would put thousands of records per scenario job into the
// store and the job's bounded event log.
const progressInterval = 250 * time.Millisecond

// job is the server-side control state of one admitted job; the wire
// envelope it serves is materialized by the store from the appended
// lifecycle records.
type job struct {
	id       string
	kind     api.JobKind
	progress *tracing.Progress
	run      func(ctx context.Context, obs tracing.Scope) (any, error)
	cancel   context.CancelFunc

	// cacheKey is the job's result-tier content address (zero when
	// caching is off for this job); cacheInfo is the envelope block
	// attached once the job reaches done. The run closure may write
	// cacheInfo's warm counts while running — it is published into the
	// done record only under mu after run returns, so snapshots never
	// see it mid-write.
	cacheKey  cache.Key
	cacheInfo *api.CacheInfo
}

// Sentinel admission errors; the HTTP layer maps them to 503 and 429.
var (
	errDraining  = errors.New("server: draining, not admitting jobs")
	errQueueFull = errors.New("server: job queue full")
)

// New starts a server: the store's interrupted jobs (if any) are
// re-enqueued, the executor pool is running, and Handler can be
// mounted immediately. Callers must eventually call Drain (or Close)
// to stop the pool.
func New(opts Options) *Server {
	if opts.Queue <= 0 {
		opts.Queue = 16
	}
	if opts.Executors <= 0 {
		opts.Executors = 2
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	if opts.Store == nil {
		opts.Store = store.NewMemory()
	}
	if opts.Logger == nil {
		// No record reaches this level, so nothing is ever encoded.
		opts.Logger = slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	ctx, cancel := context.WithCancel(context.Background())
	interrupted := opts.Store.Interrupted()
	s := &Server{
		opts:  opts,
		store: opts.Store,
		// The queue is oversized by the recovery backlog so replayed
		// jobs always fit; admission still enforces opts.Queue.
		queue:       make(chan *job, opts.Queue+len(interrupted)),
		stop:        make(chan struct{}),
		baseCtx:     ctx,
		baseCancel:  cancel,
		jobs:        map[string]*job{},
		queueDepth:  opts.Metrics.Gauge("server.queue_depth"),
		inflightG:   opts.Metrics.Gauge("server.jobs_inflight"),
		storeErrors: opts.Metrics.Counter("server.store_errors"),
	}
	for _, rec := range interrupted {
		s.recoverJob(rec)
	}
	s.queueDepth.Set(float64(len(s.queue)))
	s.wg.Add(opts.Executors)
	for i := 0; i < opts.Executors; i++ {
		go s.executor()
	}
	return s
}

// recoverJob re-enqueues one interrupted job from its journaled
// request: the request is re-validated through the same dispatch layer
// HTTP submissions use and the job re-runs under its original id.
// Deterministic (seeded) jobs reproduce their result bytes exactly. A
// request that no longer validates fails the job instead of dropping
// it, so the crash leaves an explanation rather than a hole.
func (s *Server) recoverJob(rec store.Job) {
	id := rec.Env.ID
	spec, err := s.prepare(rec.Env.Kind, rec.Request)
	if err != nil {
		s.record(store.Record{Job: id, Type: events.TypeFailed,
			Detail: fmt.Sprintf("recovery: %v", err)})
		return
	}
	if spec.cached != nil {
		// The result tier already holds this job's bytes (an identical
		// job finished before the crash): complete it at recovery.
		s.record(cachedDone(id, spec))
		return
	}
	j := &job{id: id, kind: spec.kind,
		run: spec.run, cacheKey: spec.key, cacheInfo: spec.info}
	if spec.withProgress {
		j.progress = tracing.NewProgress()
	}
	s.record(store.Record{Job: id, Type: events.TypeQueued, Detail: "recovered after restart"})
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
	s.queue <- j
}

// enqueue admits a prepared job: it allocates an id, durably journals
// acceptance, and registers the job for lookup — all under the
// admission lock, so a 202 means the accepted record hit the store
// (fsynced, on the WAL backend) and the job holds a queue slot.
func (s *Server) enqueue(spec *jobSpec) (api.Job, error) {
	if s.draining.Load() {
		return api.Job{}, errDraining
	}
	id := s.store.NextID()
	j := &job{id: id, kind: spec.kind,
		run: spec.run, cacheKey: spec.key, cacheInfo: spec.info}
	if spec.withProgress {
		j.progress = tracing.NewProgress()
	}

	s.admitMu.Lock()
	// Backpressure against the configured bound, not the (possibly
	// recovery-oversized) channel capacity.
	if len(s.queue) >= s.opts.Queue {
		s.admitMu.Unlock()
		s.opts.Metrics.Counter("server.jobs_rejected").Inc()
		s.opts.Logger.Warn("job rejected: queue full",
			"kind", string(spec.kind), "queue_depth", len(s.queue))
		return api.Job{}, errQueueFull
	}
	if err := s.accepted(id, spec); err != nil {
		s.admitMu.Unlock()
		return api.Job{}, err
	}
	s.record(store.Record{Job: id, Type: events.TypeQueued})
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
	// The capacity check above held: only admitters (serialized here)
	// fill the channel and executors only drain it, so this never
	// blocks.
	s.queue <- j
	depth := len(s.queue)
	s.admitMu.Unlock()

	s.queueDepth.Set(float64(depth))
	env, _, err := s.snapshot(id)
	return env, err
}

// admitCached registers an already-done job answering a request whose
// result document was found in the cache: the envelope is terminal on
// arrival, never touches the queue (so cached repeats are immune to
// backpressure), and is served by the job endpoints like any other.
func (s *Server) admitCached(spec *jobSpec) (api.Job, error) {
	if s.draining.Load() {
		return api.Job{}, errDraining
	}
	id := s.store.NextID()
	s.admitMu.Lock()
	err := s.accepted(id, spec)
	if err == nil {
		// The whole lifecycle collapses into one admission. A failed
		// done append still leaves a durably accepted job: it is served
		// done now and recovered after a restart.
		s.record(cachedDone(id, spec))
	}
	s.admitMu.Unlock()
	if err != nil {
		return api.Job{}, err
	}
	env, _, err := s.snapshot(id)
	return env, err
}

// accepted appends a job's accepted record. When the append fails the
// client is answered 500 and the job never runs, so it is recorded as
// failed with the store error instead of lingering as queued.
func (s *Server) accepted(id string, spec *jobSpec) error {
	err := s.record(store.Record{Job: id, Type: events.TypeAccepted,
		Kind: spec.kind, Request: spec.request})
	if err == nil {
		return nil
	}
	err = fmt.Errorf("job store: %w", err)
	s.record(store.Record{Job: id, Type: events.TypeFailed, Detail: err.Error()})
	return err
}

// cachedDone is the done record of a job answered from the result tier
// of the solve cache.
func cachedDone(id string, spec *jobSpec) store.Record {
	return store.Record{Job: id, Type: events.TypeDone, Result: spec.cached,
		Cache: &api.CacheInfo{Key: spec.key.String(), ResultHit: true}}
}

// record appends one lifecycle record to the store, then derives the
// transition's job counter and its one log line ("job <type>") from
// the record alone. A failed append is also logged and counted
// (server.store_errors, which turns /v1/healthz degraded) and
// returned; the store applies the record whatever the outcome, so the
// served state, the counters and the log always agree.
func (s *Server) record(rec store.Record) error {
	err := s.store.Append(rec)
	if err != nil {
		s.storeErrors.Inc()
		s.opts.Logger.Error("job store append failed",
			"job", rec.Job, "type", string(rec.Type), "error", err.Error())
	}
	hit := rec.Cache != nil && rec.Cache.ResultHit
	level := slog.LevelInfo
	switch rec.Type {
	case events.TypeAccepted:
		s.opts.Metrics.Counter("server.jobs_submitted").Inc()
	case events.TypeProgress:
		level = slog.LevelDebug
	case events.TypeDone:
		s.opts.Metrics.Counter("server.jobs_done").Inc()
		if hit {
			s.opts.Metrics.Counter("server.jobs_cached").Inc()
		}
	case events.TypeFailed:
		s.opts.Metrics.Counter("server.jobs_failed").Inc()
		level = slog.LevelError
	case events.TypeCancelled, events.TypeDrained:
		s.opts.Metrics.Counter("server.jobs_cancelled").Inc()
	}
	ctx := context.Background()
	if !s.opts.Logger.Enabled(ctx, level) {
		return err
	}
	attrs := []slog.Attr{slog.String("job", rec.Job)}
	if rec.Kind != "" {
		attrs = append(attrs, slog.String("kind", string(rec.Kind)))
	}
	if hit {
		attrs = append(attrs, slog.String("cache_key", rec.Cache.Key))
	}
	if rec.Detail != "" {
		attrs = append(attrs, slog.String("detail", rec.Detail))
	}
	s.opts.Logger.LogAttrs(ctx, level, "job "+string(rec.Type), attrs...)
	return err
}

// executor pulls jobs off the queue until the server stops. A closed
// stop channel finishes the current job but claims no further ones —
// the first half of the drain sequence.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob drives one job through running to a terminal state.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if rec, ok, _ := s.store.Get(j.id); !ok || rec.Env.State != api.JobQueued {
		// Cancelled while waiting in the queue.
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.cancel = cancel
	started := time.Now().UTC()
	s.record(store.Record{Job: j.id, Type: events.TypeStarted, Time: started})
	s.mu.Unlock()

	s.inflight.Add(1)
	s.inflightG.Set(float64(s.inflight.Load()))
	s.queueDepth.Set(float64(len(s.queue)))
	stopSampler := s.startProgressSampler(j)

	var raw []byte
	// The job's one instrumentation scope: the server-wide registry and
	// tracer, and the job's own board so concurrent jobs report
	// progress separately.
	obs := tracing.Scope{Metrics: s.opts.Metrics, Tracer: s.opts.Tracer, Progress: j.progress}
	res, err := j.run(ctx, obs)
	if err == nil {
		raw, err = json.Marshal(res)
		if err != nil {
			err = fmt.Errorf("encoding result: %v", err)
		}
	}
	cancel()
	// Stop sampling before the terminal record so progress ticks never
	// follow it in the event log.
	stopSampler()
	defer func() {
		s.inflight.Add(-1)
		s.inflightG.Set(float64(s.inflight.Load()))
	}()

	s.mu.Lock()
	defer s.mu.Unlock()
	done := time.Now().UTC()
	delete(s.jobs, j.id)
	switch {
	case err == nil:
		rec := store.Record{Job: j.id, Type: events.TypeDone, Result: raw, Time: done}
		if j.cacheInfo != nil {
			// Store the exact marshaled bytes, so a later hit replays
			// them bit-identically, and publish the cache block (the run
			// closure filled its warm counts before returning).
			s.opts.Cache.PutResult(j.cacheKey, raw)
			rec.Cache = j.cacheInfo
		}
		s.record(rec)
		s.recordWall(done.Sub(started))
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Distinguish a drain (server shutdown) from a client cancel in
		// the event log: clients watching the stream learn whether to
		// resubmit elsewhere or accept the DELETE they asked for.
		typ := events.TypeCancelled
		if s.draining.Load() {
			typ = events.TypeDrained
		}
		s.record(store.Record{Job: j.id, Type: typ, Detail: err.Error(), Time: done})
	default:
		s.record(store.Record{Job: j.id, Type: events.TypeFailed, Detail: err.Error(), Time: done})
	}
}

// startProgressSampler launches a goroutine mirroring the job's
// progress board into the store (and so its event log) every
// progressInterval (only when a snapshot changed). The returned stop
// function halts sampling, records one final changed snapshot, and
// only then returns — so the terminal event always follows the last
// progress tick. It is a no-op (returning a no-op stop) when the job
// has no board.
func (s *Server) startProgressSampler(j *job) (stop func()) {
	if j.progress == nil {
		return func() {}
	}
	halt := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(progressInterval)
		defer tick.Stop()
		var last tracing.ProgressSnapshot
		emit := func() {
			cur := j.progress.Snapshot()
			if cur == last {
				return
			}
			last = cur
			s.record(store.Record{Job: j.id, Type: events.TypeProgress, Progress: &cur})
		}
		for {
			select {
			case <-halt:
				emit()
				return
			case <-tick.C:
				emit()
			}
		}
	}()
	return func() {
		close(halt)
		<-done
	}
}

// recordWall folds one finished job's wall time into the rolling
// window behind the Retry-After estimate.
func (s *Server) recordWall(d time.Duration) {
	if d < 0 {
		return
	}
	s.wallMu.Lock()
	s.recentWall[s.wallCount%wallWindow] = d
	s.wallCount++
	s.wallMu.Unlock()
}

// meanWall returns the rolling mean of recent job wall times (0 with
// no history yet).
func (s *Server) meanWall() time.Duration {
	s.wallMu.Lock()
	defer s.wallMu.Unlock()
	n := s.wallCount
	if n > wallWindow {
		n = wallWindow
	}
	if n == 0 {
		return 0
	}
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += s.recentWall[i]
	}
	return sum / time.Duration(n)
}

// retryAfterSeconds estimates when a rejected client should retry: the
// backlog's expected drain time — queue depth times the rolling mean
// job wall time, divided by the executor-pool width since that many
// jobs drain concurrently — rounded up, with a 1-second floor (which
// is also the answer before any job has finished).
func (s *Server) retryAfterSeconds() int {
	mean := s.meanWall()
	secs := int(math.Ceil(float64(len(s.queue)) * mean.Seconds() / float64(s.opts.Executors)))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// snapshot materializes a job's wire envelope from the store,
// overlaying the live progress board for jobs that track one. ok
// reports whether the job exists; err is a failed read of its result
// document from the store.
func (s *Server) snapshot(id string) (env api.Job, ok bool, err error) {
	rec, ok, err := s.store.Get(id)
	return s.decorate(rec.Env), ok, err
}

// decorate overlays the live progress counts onto a stored envelope:
// the board is sampled into the store only periodically, so the
// in-process counts are fresher while the job is queued or running.
// A terminal job's envelope is the store's as is: the sampler stored
// its final snapshot before the terminal record.
func (s *Server) decorate(env api.Job) api.Job {
	s.mu.Lock()
	j := s.jobs[env.ID]
	s.mu.Unlock()
	if j != nil && j.progress != nil {
		p := j.progress.Snapshot()
		env.Progress = &p
	}
	return env
}

// errBadCursor is list's answer to a cursor naming no job.
var errBadCursor = errors.New("unknown cursor")

// list returns envelope snapshots in submission order, keeping only
// the given states (nil keeps everything), starting after the job id
// `after` (empty starts at the beginning; an unknown id is an
// errBadCursor), and returning at most limit envelopes (non-positive
// means all). total counts every match regardless of the page, and
// next is the cursor for the following page ("" on the last one). Only
// the page's result documents are read back from the store; a failed
// read is returned as is.
func (s *Server) list(states map[api.JobState]bool, after string, limit int) (jobs []api.Job, total int, next string, err error) {
	recs := s.store.List()
	start := 0
	if after != "" {
		found := false
		for i, rec := range recs {
			if rec.Env.ID == after {
				start, found = i+1, true
				break
			}
		}
		if !found {
			return nil, 0, "", fmt.Errorf("%w %q", errBadCursor, after)
		}
	}
	jobs = []api.Job{}
	truncated := false
	for i, rec := range recs {
		if states != nil && !states[rec.Env.State] {
			continue
		}
		total++
		if i < start {
			continue
		}
		if limit > 0 && len(jobs) >= limit {
			truncated = true
			continue
		}
		if err := s.store.Resolve(&rec); err != nil {
			return nil, 0, "", err
		}
		jobs = append(jobs, s.decorate(rec.Env))
	}
	if truncated && len(jobs) > 0 {
		next = jobs[len(jobs)-1].ID
	}
	return jobs, total, next, nil
}

// cancelJob requests cancellation of a job. Queued jobs cancel
// immediately; running jobs have their context cancelled and reach the
// cancelled state when the engine drains (the caller polls); terminal
// jobs are left untouched. It answers like snapshot: the envelope,
// whether the job exists, and a failed result read.
func (s *Server) cancelJob(id string) (api.Job, bool, error) {
	var cancel context.CancelFunc
	s.mu.Lock()
	// A job absent from s.jobs is terminal (finished, or cache-answered
	// on arrival) or unknown: nothing to cancel.
	if j := s.jobs[id]; j != nil {
		rec, _, _ := s.store.Get(id)
		switch rec.Env.State {
		case api.JobQueued:
			s.finalizeCancelledLocked(j, "cancelled while queued", events.TypeCancelled)
		case api.JobRunning:
			cancel = j.cancel
			s.opts.Logger.Info("job cancel requested", "job", id)
		}
	}
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return s.snapshot(id)
}

// finalizeCancelledLocked finalizes a not-yet-running job as
// cancelled, recording typ (cancelled for client DELETEs, drained for
// shutdown) as the terminal transition. Callers hold s.mu.
func (s *Server) finalizeCancelledLocked(j *job, why string, typ events.Type) {
	s.record(store.Record{Job: j.id, Type: typ, Detail: why})
	delete(s.jobs, j.id)
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain shuts the server down: it stops admitting new jobs, cancels
// the ones still waiting in the queue, gives running jobs up to
// timeout to finish on their own, then cancels their contexts and
// waits for the engines to drain their worker pools. A non-positive
// timeout cancels running jobs immediately. The job store is closed
// once everything has settled. Drain is idempotent and returns once
// every executor has exited.
func (s *Server) Drain(timeout time.Duration) {
	s.draining.Store(true)
	s.stopOnce.Do(func() {
		close(s.stop)
		s.opts.Logger.Info("draining", "timeout_seconds", timeout.Seconds(),
			"queue_depth", len(s.queue), "inflight", s.inflight.Load())
	})
	s.drainQueued()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if timeout > 0 {
		select {
		case <-done:
		case <-time.After(timeout):
		}
	}
	// Cancel whatever is still running (a no-op if everything
	// finished) and wait for the engines to drain.
	s.baseCancel()
	<-done
	// A submission that raced the draining flag may have slipped into
	// the queue after the first sweep; with the executors gone this
	// sweep is final.
	s.drainQueued()
	s.closeStore.Do(func() {
		if err := s.store.Close(); err != nil {
			s.opts.Logger.Error("closing job store", "error", err.Error())
		}
	})
}

// Close is Drain with immediate cancellation.
func (s *Server) Close() { s.Drain(0) }

// drainQueued empties the queue channel, cancelling every job that
// never reached an executor.
func (s *Server) drainQueued() {
	for {
		select {
		case j := <-s.queue:
			s.mu.Lock()
			if rec, ok, _ := s.store.Get(j.id); ok && rec.Env.State == api.JobQueued {
				s.finalizeCancelledLocked(j, "cancelled before start: server draining", events.TypeDrained)
			}
			s.mu.Unlock()
		default:
			return
		}
	}
}

// progressSnapshot aggregates the progress boards of the queued and
// running jobs — the /progress debug endpoint's view of the server's
// outstanding work.
func (s *Server) progressSnapshot() tracing.ProgressSnapshot {
	s.mu.Lock()
	boards := make([]*tracing.Progress, 0, len(s.jobs))
	for _, j := range s.jobs {
		if j.progress != nil {
			boards = append(boards, j.progress)
		}
	}
	s.mu.Unlock()
	var sum tracing.ProgressSnapshot
	for _, b := range boards {
		p := b.Snapshot()
		sum.Scenarios.Done += p.Scenarios.Done
		sum.Scenarios.Planned += p.Scenarios.Planned
		sum.Cases.Done += p.Cases.Done
		sum.Cases.Planned += p.Cases.Planned
		sum.Replications.Done += p.Replications.Done
		sum.Replications.Planned += p.Replications.Planned
	}
	return sum
}
