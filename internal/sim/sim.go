// Package sim is the Stage-II runtime substrate: a discrete-event
// simulation of one data-parallel application executing its loop on a
// group of processors under a dynamic loop scheduling technique and
// time-varying processor availability.
//
// The execution model follows the paper's Stage-II narrative. The
// application's serial iterations run first on the group's master
// (worker 0). The parallel iterations are then scheduled by the chosen
// DLS technique: whenever a worker goes idle the master hands it a chunk
// whose size the technique decides; dispatching a chunk costs a fixed
// scheduling overhead; executing k iterations requires the sum of k
// stochastic iteration times of dedicated work, delivered at the
// worker's current fractional availability (a processor that is 50%
// available computes at half speed). The application's makespan is the
// time the last chunk completes.
//
// This simulator substitutes for the authors' MPI runtime and
// historically-loaded testbed (see DESIGN.md): availability processes
// from package availability reproduce the stochastic load, and the
// chunk-level dynamics are exactly what distinguishes STATIC from the
// robust DLS techniques.
package sim

import (
	"context"
	"fmt"
	"math"
	"time"

	"cdsf/internal/availability"
	"cdsf/internal/dls"
	"cdsf/internal/metrics"
	"cdsf/internal/rng"
	"cdsf/internal/stats"
	"cdsf/internal/tracing"
)

// Config describes one simulated application execution.
type Config struct {
	// SerialIters run on worker 0 before the parallel loop; may be 0.
	SerialIters int
	// ParallelIters are scheduled by the DLS technique; must be > 0.
	ParallelIters int
	// Workers is the number of processors in the allocated group.
	Workers int
	// IterTime is the distribution of one iteration's dedicated
	// execution time. Draws are clamped to be strictly positive.
	IterTime stats.Dist
	// IterProfile optionally shapes the parallel loop's costs across
	// the iteration space (see Profile); nil means a flat loop.
	// Iterations are dispatched in index order, so chunk costs follow
	// the profile's gradient.
	IterProfile Profile
	// Avail supplies each worker's availability process.
	Avail availability.Model
	// Technique schedules the parallel loop.
	Technique dls.Technique
	// WeightsFromAvail, when true, derives the a-priori worker weights
	// handed to the technique (used by WF and as the AWF starting
	// point) from each worker's availability at time zero — the "known
	// current load" assumption behind weighted factoring in
	// non-dedicated systems.
	WeightsFromAvail bool
	// BestMaster, when true, runs the serial phase on the worker with
	// the highest availability at time zero instead of worker 0 — the
	// resource manager designating the least-loaded processor of the
	// group as its coordinator when staging the application.
	BestMaster bool
	// Overhead is the scheduling cost charged per dispatched chunk.
	Overhead float64
	// TimeSteps is the number of sweeps over the iteration space
	// (time-stepping applications); 0 or 1 means a single sweep. For
	// multi-sweep runs the serial phase executes once per sweep, and
	// schedulers implementing dls.TimeStepper (the original AWF) carry
	// their learned state across sweeps; other techniques restart
	// fresh each sweep.
	TimeSteps int
	// Release delays the run's start: a DAG batch application is
	// blocked until all its predecessors have finished, so its clock
	// starts at Release and the reported Makespan is the absolute
	// finish time (Release included). Zero is the independent-batch
	// behavior. Must be non-negative and finite.
	Release float64
	// Releases optionally gives RunMany a per-repetition release time
	// (length must equal the repetition count): repetition i starts at
	// Releases[i], which is how core couples a DAG's replications —
	// each repetition's release is the max of its predecessors' finish
	// times in that same repetition. Nil applies Release to every
	// repetition.
	Releases []float64
	// Seed drives all randomness of the run.
	Seed uint64
	// CollectChunks enables the per-chunk log in the result (costs
	// memory on large runs).
	CollectChunks bool
	// Obs receives the run's instrumentation. Obs.Metrics gets the
	// run-level counters (events processed, chunks dispatched,
	// busy/idle/overhead time, heap operations, wall time); Obs.Tracer
	// gets the simulated-time timeline, per-worker lanes of
	// busy/overhead/idle spans built from the chunk log under
	// TraceScope; Obs.Progress gets RunMany's planned and completed
	// repetitions. The zero Scope records nothing. Instrumentation
	// derives only from finished results and never touches the
	// simulation's rng streams or event order, so seeded results are
	// bit-identical under any scope.
	Obs tracing.Scope
	// TraceScope prefixes the emitted lane names (lanes are
	// TraceScope + "/w<worker>"); empty means "run". Hierarchical
	// scopes like "scenario/case/app" thread the Stage-II nesting into
	// the trace.
	TraceScope string
	// gated marks a run as precedence-gated (part of a DAG batch) even
	// when its release time is zero, so the sim.dag.* metrics count
	// source applications too. RunMany sets it when Releases is
	// non-nil.
	gated bool
	// costs, when set, is the run's iteration-cost vector as fillCosts
	// lays it out. RunArmsContext draws it once per repetition and hands
	// it to every technique; a run without it draws the same values from
	// the seed's work stream as it dispatches.
	costs []float64
}

func (c *Config) validate() error {
	if c.ParallelIters <= 0 {
		return fmt.Errorf("sim: %d parallel iterations", c.ParallelIters)
	}
	if c.SerialIters < 0 {
		return fmt.Errorf("sim: %d serial iterations", c.SerialIters)
	}
	if c.Workers <= 0 {
		return fmt.Errorf("sim: %d workers", c.Workers)
	}
	if c.IterTime == nil {
		return fmt.Errorf("sim: nil iteration time distribution")
	}
	if c.Avail == nil {
		return fmt.Errorf("sim: nil availability model")
	}
	if c.Technique.New == nil {
		return fmt.Errorf("sim: technique %q has no factory", c.Technique.Name)
	}
	if c.Overhead < 0 {
		return fmt.Errorf("sim: negative overhead %v", c.Overhead)
	}
	if c.Release < 0 || math.IsNaN(c.Release) || math.IsInf(c.Release, 0) {
		return fmt.Errorf("sim: invalid release time %v", c.Release)
	}
	return nil
}

// Result reports one simulated run.
type Result struct {
	// Makespan is the absolute completion time of the whole
	// application: the release time (if any), the serial phase, and
	// the parallel loop.
	Makespan float64
	// Release echoes Config.Release: the time the application spent
	// blocked on its predecessors before starting.
	Release float64
	// SerialTime is the duration of the serial phase.
	SerialTime float64
	// ParallelTime is Makespan - Release - SerialTime.
	ParallelTime float64
	// NumChunks counts dispatched chunks.
	NumChunks int
	// WorkerBusy[i] is the total execution time (excluding overhead)
	// spent by worker i in the parallel phase.
	WorkerBusy []float64
	// WorkerIters[i] is the number of parallel iterations executed by
	// worker i.
	WorkerIters []int
	// Imbalance is (max - min)/max of the per-worker finish times of the
	// parallel phase, the classic load-imbalance metric (0 = perfect).
	Imbalance float64
	// Chunks is the per-chunk log when Config.CollectChunks is set.
	Chunks []tracing.Chunk
}

// event is a worker becoming idle at time t.
type event struct {
	t      float64
	worker int
}

// eventQueue is a binary min-heap of events ordered by time, ties
// broken by worker. Every worker has at most one event queued, so the
// order is total and the pop sequence is the same for any heap
// layout. It is typed rather than a container/heap.Interface, which
// would box every pushed and popped event.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].worker < q[j].worker
}

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < n && h.less(l, least) {
			least = l
		}
		if r < n && h.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	*q = h
	return top
}

// seedStreams sets avail and work, in place, to a run seed's two
// independent rng streams: the availability processes draw from the
// first, the iteration costs from the second.
func seedStreams(seed uint64, avail, work *rng.Source) {
	var root rng.Source
	root.Seed(seed)
	avail.Seed(root.Uint64())
	work.Seed(root.Uint64())
}

// steps returns the number of sweeps over the iteration space.
func (c *Config) steps() int {
	if c.TimeSteps < 1 {
		return 1
	}
	return c.TimeSteps
}

// costStream hands a run its dedicated-time iteration costs in the
// order the run consumes them, which is the order drawCosts lays them
// out: per sweep, the serial iterations and then the parallel ones in
// index order (iterations are dispatched in index order whatever the
// technique). RunArmsContext draws a repetition's whole layout once
// (fillCosts) and every technique reads it in turn; any other run
// draws it from its work stream a window of at most costBlock costs at
// a time, as it consumes them. Nothing else draws from the work
// stream, so both give the same values, and next sums a chunk's
// costs in layout order either way: the bits are the same.
type costStream struct {
	cfg    Config // a copy: keeping a pointer would move each run's Config to the heap
	r      *rng.Source
	vec    []float64 // the drawn costs not yet consumed
	buf    []float64 // the window next draws into, kept across runs
	pos    int       // position in its sweep of the next cost a window draws
	sweeps int       // sweeps with costs left to draw into windows; 0 when vec is the whole layout
}

// costBlock bounds the window a run draws its costs into, so its
// memory stays constant whatever the instance size.
const costBlock = 256

// reset points s at one run's costs: cfg.costs when RunArmsContext drew
// them, else windows drawn from the work stream r into s's buffer.
func (s *costStream) reset(cfg *Config, r *rng.Source) {
	*s = costStream{cfg: *cfg, r: r, vec: cfg.costs, buf: s.buf}
	if s.vec == nil {
		s.buf = grow(s.buf, min(costBlock, cfg.SerialIters+cfg.ParallelIters))
		s.sweeps = cfg.steps()
	}
}

// next returns the summed cost of the run's next k iterations.
func (s *costStream) next(k int) float64 {
	w := 0.0
	for k > 0 {
		if len(s.vec) == 0 {
			if s.sweeps == 0 {
				panic("sim: cost stream consumed past its layout")
			}
			// A window stays within one sweep, so no position is ever
			// a product of the client-sized sweep and iteration counts.
			sweep := s.cfg.SerialIters + s.cfg.ParallelIters
			s.vec = s.buf[:min(len(s.buf), sweep-s.pos)]
			drawCosts(&s.cfg, s.r, s.vec, s.pos)
			if s.pos += len(s.vec); s.pos == sweep {
				s.pos = 0
				s.sweeps--
			}
		}
		n := min(k, len(s.vec))
		for _, x := range s.vec[:n] {
			w += x
		}
		s.vec = s.vec[n:]
		k -= n
	}
	return w
}

// drawCosts fills xs with the costs at layout positions
// [pos, pos+len(xs)) from the work stream r, as successive IterTime
// samples would give them: each iteration takes the next positive draw
// (a shortfall is topped up from the same stream), and a parallel one
// is then scaled by the profile multiplier of its index. A Truncated
// with Lo > 0, which core gives every Stage-II cell, keeps its draws in
// [Lo, Hi], so its one fill is the whole draw.
func drawCosts(cfg *Config, r *rng.Source, xs []float64, pos int) {
	if t, ok := cfg.IterTime.(stats.Truncated); ok && t.Lo > 0 {
		stats.Fill(cfg.IterTime, r, xs)
	} else {
		for filled := 0; filled < len(xs); {
			rest := xs[filled:]
			stats.Fill(cfg.IterTime, r, rest)
			for _, x := range rest {
				if !(x <= 0) {
					xs[filled] = x
					filled++
				}
			}
		}
	}
	profile := cfg.IterProfile
	if profile == nil {
		return
	}
	serial, sweep := cfg.SerialIters, cfg.SerialIters+cfg.ParallelIters
	for i, x := range xs {
		if q := (pos + i) % sweep; q >= serial {
			// Round the product here: a compiler may not fuse it into
			// the sum next makes of xs.
			xs[i] = float64(x * profile(q-serial, cfg.ParallelIters))
		}
	}
}

// fillCosts draws a run's whole cost layout from the work stream r into
// buf, reusing its capacity. RunArmsContext calls it only on runs that
// sharedCostsFit, so the layout's length cannot overflow.
func fillCosts(cfg *Config, r *rng.Source, buf []float64) []float64 {
	buf = grow(buf, cfg.steps()*(cfg.SerialIters+cfg.ParallelIters))
	drawCosts(cfg, r, buf, 0)
	return buf
}

// grow returns xs resized to n elements, reusing its backing array when
// it is large enough. The elements are not cleared.
func grow[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	return xs[:n]
}

// simCheckStride is how many events the simulation loop processes
// between cancellation checks. Checking ctx.Err() is a single atomic
// load, but keeping it off the per-event path preserves the event
// loop's throughput; at typical event rates a stride of 1024 bounds
// the cancellation latency well below a millisecond.
const simCheckStride = 1024

// RunContext executes one simulation under ctx. The event loop checks
// for cancellation every simCheckStride events; a cancelled run returns
// an error wrapping ctx.Err() and no result. Cancellation checks never
// touch the run's rng streams, so an uncancelled seeded run is
// bit-identical to Run.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return new(runState).run(ctx, &cfg)
}

// runState is what a goroutine's runs reuse: the rng streams, the
// availability processes, the event queue, the per-worker arrays, the
// cost window and the metric handles. RunContext runs on a fresh one;
// RunArmsContext gives each pool worker one for every repetition and
// arm it runs, so a repetition allocates little beyond its schedulers.
// A run resets every field before reading it, so a reused state gives
// a fresh state's bits.
type runState struct {
	avail, work rng.Source
	procs       []availability.Process
	weights     []float64
	queue       eventQueue
	finish      []float64
	pending     []pendingChunk
	costs       costStream
	shared      []float64 // RunArmsContext's cost vector of the current repetition
	res         Result
	stats       runStats
	metrics     runMetrics
}

// pendingChunk is the chunk a worker is executing (size 0: none); its
// Report is delivered when the completion event is popped, so the
// scheduler only ever sees measurements that have happened in
// simulated time.
type pendingChunk struct {
	size    int
	elapsed float64
}

// run executes one simulation of cfg, which the caller has validated.
// The Result is s's own, valid until s runs again.
func (s *runState) run(ctx context.Context, cfg *Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	// An active tracer needs the chunk log to build the worker lanes;
	// collect it internally and drop it afterwards unless the caller
	// asked for it, so the Result is identical with tracing on or off.
	tr := cfg.Obs.Tracer
	collect := cfg.CollectChunks || tr != nil
	reg := cfg.Obs.Metrics
	var t0 time.Time
	if reg != nil {
		t0 = time.Now()
	}
	seedStreams(cfg.Seed, &s.avail, &s.work)
	s.costs.reset(cfg, &s.work)

	// Group-scoped availability models (e.g. availability.SharedLoad)
	// reset their shared state per run so repetitions stay independent.
	if gr, ok := cfg.Avail.(availability.GroupScoped); ok {
		gr.ResetGroup()
	}
	s.procs = grow(s.procs, cfg.Workers)
	availability.Processes(cfg.Avail, &s.avail, s.procs)

	var weights []float64
	if cfg.WeightsFromAvail {
		s.weights = grow(s.weights, cfg.Workers)
		for i, p := range s.procs {
			s.weights[i] = p.At(cfg.Release)
		}
		weights = s.weights
	}

	newSched := func() (dls.Scheduler, error) {
		return cfg.Technique.New(dls.Setup{
			Iterations: cfg.ParallelIters,
			Workers:    cfg.Workers,
			Weights:    weights,
			Overhead:   cfg.Overhead,
			IterMean:   cfg.IterTime.Mean(),
			IterStdDev: sqrtOrZero(cfg.IterTime.Var()),
		})
	}
	sched, err := newSched()
	if err != nil {
		return nil, err
	}

	res := &s.res
	*res = Result{
		Release:     cfg.Release,
		WorkerBusy:  grow(res.WorkerBusy, cfg.Workers),
		WorkerIters: grow(res.WorkerIters, cfg.Workers),
	}
	clear(res.WorkerBusy)
	clear(res.WorkerIters)
	s.stats = runStats{}
	// A precedence-gated run starts its clock at the release time: the
	// application was blocked until every predecessor finished, so the
	// availability processes, the serial phase, and every chunk live at
	// absolute simulated times past the release.
	clock := cfg.Release
	for step := 0; step < cfg.steps(); step++ {
		if step > 0 {
			// A time-stepping scheduler (the original AWF) carries its
			// learned weights into the next sweep; every other
			// technique restarts fresh.
			if ts, ok := sched.(dls.TimeStepper); ok {
				ts.EndStep()
			} else if sched, err = newSched(); err != nil {
				return nil, err
			}
		}

		// Serial phase on the group master (worker 0, or the currently
		// most available worker under BestMaster).
		master := 0
		if cfg.BestMaster {
			for i := 1; i < cfg.Workers; i++ {
				if s.procs[i].At(clock) > s.procs[master].At(clock) {
					master = i
				}
			}
		}
		start := clock
		if cfg.SerialIters > 0 {
			start = s.procs[master].FinishTime(clock, s.costs.next(cfg.SerialIters))
		}
		res.SerialTime += start - clock

		clock, err = s.sweep(ctx, cfg, sched, start, collect)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}

	res.Makespan = clock
	res.ParallelTime = clock - cfg.Release - res.SerialTime
	if reg != nil {
		s.metrics.flush(reg, cfg, res, &s.stats, time.Since(t0))
	}
	if tr != nil {
		emitRunSpans(tr, cfg, res)
		if !cfg.CollectChunks {
			res.Chunks = nil
		}
	}
	return res, nil
}

// emitRunSpans publishes one run's simulated-time timeline: the serial
// phase on a master lane plus the per-worker busy/overhead/idle lanes
// of the chunk log. All spans derive from the finished Result, never
// from the simulation's rng streams, so enabling tracing cannot
// perturb seeded outputs.
func emitRunSpans(tr *tracing.Tracer, cfg *Config, res *Result) {
	scope := cfg.TraceScope
	if scope == "" {
		scope = "run"
	}
	if res.Release > 0 {
		// The release gate of a DAG batch: simulated time spent blocked
		// on predecessors, shown on its own lane so the release schedule
		// is visible next to the worker lanes.
		tr.Add(tracing.Span{Clock: tracing.Sim, Lane: scope + "/blocked",
			Name: "blocked on predecessors", Cat: "blocked", Start: 0, Dur: res.Release})
	}
	if res.SerialTime > 0 {
		tr.Add(tracing.Span{Clock: tracing.Sim, Lane: scope + "/serial",
			Name: "serial phase", Cat: "serial", Start: res.Release, Dur: res.SerialTime})
	}
	tr.AddWorkerLanes(scope, res.Chunks, cfg.Overhead)
}

// runStats accumulates one run's instrumentation counts in plain
// integers; the run flushes them to the registry once at the end,
// keeping atomic traffic out of the event loop.
type runStats struct {
	events  int64
	heapOps int64
}

// utilizationBounds buckets per-worker busy-time fractions of the
// parallel phase.
var utilizationBounds = []float64{0.25, 0.5, 0.75, 0.9, 1.0}

// runMetrics holds the sim.* handles a run state publishes to. Each is
// looked up in the registry the first time a run publishes it, so a
// state's runs lock the registry once per name rather than once per
// run, and the registry gains exactly the names per-run lookups would
// create (no sim.dag.* entry for a run that is not gated).
type runMetrics struct {
	reg                                       *metrics.Registry
	runs, events, heapOps, chunks, iterations *metrics.Counter
	busy, overhead, serial                    *metrics.Gauge
	wall                                      *metrics.Timer
	dagReady                                  *metrics.Counter
	dagBlocked, idle                          *metrics.Gauge
	utilization                               *metrics.Histogram
}

// flush publishes one run's counts and times to reg. All values derive
// from the finished Result, never from the simulation's rng streams, so
// enabling metrics cannot perturb seeded outputs.
func (m *runMetrics) flush(reg *metrics.Registry, cfg *Config, res *Result, st *runStats, wall time.Duration) {
	if m.reg != reg {
		*m = runMetrics{
			reg:        reg,
			runs:       reg.Counter("sim.runs"),
			events:     reg.Counter("sim.events"),
			heapOps:    reg.Counter("sim.heap_ops"),
			chunks:     reg.Counter("sim.chunks"),
			iterations: reg.Counter("sim.iterations"),
			busy:       reg.Gauge("sim.busy_time"),
			overhead:   reg.Gauge("sim.overhead_time"),
			serial:     reg.Gauge("sim.serial_time"),
			wall:       reg.Timer("sim.run_wall"),
		}
	}
	m.runs.Inc()
	if cfg.gated || cfg.Release > 0 {
		// DAG release schedule: one "ready" event per gated run, plus
		// the simulated time the application spent blocked on its
		// predecessors before that.
		if m.dagReady == nil {
			m.dagReady, m.dagBlocked = reg.Counter("sim.dag.ready"), reg.Gauge("sim.dag.blocked_time")
		}
		m.dagReady.Inc()
		m.dagBlocked.Add(cfg.Release)
	}
	m.events.Add(st.events)
	m.heapOps.Add(st.heapOps)
	m.chunks.Add(int64(res.NumChunks))
	iters := 0
	for _, k := range res.WorkerIters {
		iters += k
	}
	m.iterations.Add(int64(iters))

	busy := 0.0
	for _, b := range res.WorkerBusy {
		busy += b
	}
	overhead := float64(res.NumChunks) * cfg.Overhead
	m.busy.Add(busy)
	m.overhead.Add(overhead)
	m.serial.Add(res.SerialTime)
	// Idle time is what remains of the workers' parallel-phase wall
	// clock after execution and dispatch overhead.
	if idle := float64(cfg.Workers)*res.ParallelTime - busy - overhead; idle > 0 {
		if m.idle == nil {
			m.idle = reg.Gauge("sim.idle_time")
		}
		m.idle.Add(idle)
	}
	if res.ParallelTime > 0 {
		if m.utilization == nil {
			m.utilization = reg.Histogram("sim.worker_utilization", utilizationBounds)
		}
		for _, b := range res.WorkerBusy {
			m.utilization.Observe(b / res.ParallelTime)
		}
	}
	m.wall.Observe(wall)
}

// sweep executes one full pass of the parallel loop starting all
// workers at `start`, returning the sweep's makespan; s.costs supplies
// the sweep's parallel iteration costs. It updates the aggregate
// counters, the chunk log when collect is set, and the Imbalance metric
// (of the latest sweep) in s.res. Cancellation is checked every
// simCheckStride events; a cancelled sweep abandons the event queue and
// returns ctx's error.
func (s *runState) sweep(ctx context.Context, cfg *Config, sched dls.Scheduler, start float64, collect bool) (float64, error) {
	res, st := &s.res, &s.stats
	// Every worker starts idle at start, in worker order: already a
	// heap.
	q := s.queue[:0]
	for w := 0; w < cfg.Workers; w++ {
		q = append(q, event{t: start, worker: w})
	}
	st.heapOps += int64(cfg.Workers)

	finish := grow(s.finish, cfg.Workers)
	for i := range finish {
		finish[i] = start
	}
	pending := grow(s.pending, cfg.Workers)
	clear(pending)
	s.queue, s.finish, s.pending = q, finish, pending

	makespan := start
	nextIter := 0 // iterations are dispatched in index order
	for len(q) > 0 {
		e := q.pop()
		st.events++
		st.heapOps++
		if st.events%simCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		if p := pending[e.worker]; p.size > 0 {
			sched.Report(e.worker, p.size, p.elapsed)
			pending[e.worker] = pendingChunk{}
		}
		k := sched.Next(e.worker)
		if k == 0 {
			// Worker done; it leaves the queue.
			continue
		}
		if k > cfg.ParallelIters-nextIter {
			return 0, fmt.Errorf("technique %q dispatched %d iterations past the loop end", cfg.Technique.Name, k-(cfg.ParallelIters-nextIter))
		}
		work := s.costs.next(k)
		nextIter += k
		execStart := e.t + cfg.Overhead
		end := s.procs[e.worker].FinishTime(execStart, work)
		elapsed := end - execStart
		pending[e.worker] = pendingChunk{size: k, elapsed: elapsed}

		res.NumChunks++
		res.WorkerBusy[e.worker] += elapsed
		res.WorkerIters[e.worker] += k
		if collect {
			res.Chunks = append(res.Chunks, tracing.Chunk{
				Worker: e.worker, Start: e.t, Size: k, Elapsed: elapsed,
			})
		}
		finish[e.worker] = end
		if end > makespan {
			makespan = end
		}
		q.push(event{t: end, worker: e.worker})
		st.heapOps++
	}

	maxF, minF := finish[0], finish[0]
	for _, f := range finish[1:] {
		if f > maxF {
			maxF = f
		}
		if f < minF {
			minF = f
		}
	}
	if maxF > start {
		res.Imbalance = (maxF - minF) / (maxF - start)
	}
	return makespan, nil
}

func sqrtOrZero(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}
