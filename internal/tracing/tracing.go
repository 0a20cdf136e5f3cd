// Package tracing is the span-level observability layer of the CDSF
// reproduction: a zero-dependency, goroutine-safe recorder of timed
// spans that exports causal timelines of a run — where package metrics
// answers "how much", tracing answers "when and in what order".
//
// Spans live on one of two clocks:
//
//   - Wall: real wall-clock time, for the Stage-I search engine
//     (the table precompute, exhaustive partitions, metaheuristic
//     restarts) and the Stage-II orchestration in core (scenario ->
//     case -> application nesting).
//   - Sim: simulated time, for the Stage-II discrete-event runs —
//     per-worker lanes of busy/overhead/idle intervals built from the
//     simulator's chunk log.
//
// The two clocks export as separate process tracks of one Chrome Trace
// Event Format file (chrome://tracing, Perfetto); see WriteChrome. The
// same spans can also render as an ASCII report.Gantt for terminals.
//
// Like package metrics, the disabled path is free of surprises: a nil
// *Tracer is a no-op on every method, recording derives only from
// finished results and real time — never from the simulation's rng
// streams — and seeded outputs are bit-identical with tracing on or
// off. When the span buffer reaches its cap, further spans are counted
// (Dropped, and "tracing.dropped" in the tracer's metrics registry)
// rather than silently discarded.
//
// Engines receive a tracer, together with a metrics registry and a
// progress board, as one Scope in the Obs field of their configs.
//
// Only the standard library (plus the sibling internal packages
// metrics and report) is used.
package tracing

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cdsf/internal/metrics"
)

// Clock selects the time base of a span.
type Clock uint8

const (
	// Wall spans carry real time: Start is seconds since the tracer's
	// epoch (its creation time), Dur is seconds.
	Wall Clock = iota
	// Sim spans carry simulated time: Start and Dur are simulated time
	// units as produced by the Stage-II simulator.
	Sim
)

// String names the clock's process track in exports.
func (c Clock) String() string {
	if c == Sim {
		return "simulated time"
	}
	return "wall clock"
}

// Span is one timed interval on a named lane.
type Span struct {
	// Clock is the span's time base.
	Clock Clock
	// Lane names the span's row (the Chrome trace "thread"); hierarchy
	// is conventionally encoded with '/' separators, e.g.
	// "scenario/case/app/w03".
	Lane string
	// Name labels the interval.
	Name string
	// Cat is the span's category (e.g. "busy", "overhead", "idle",
	// "stage1"); Chrome trace viewers can filter by it.
	Cat string
	// Start and Dur delimit the interval in the clock's units (Wall:
	// seconds since the tracer epoch; Sim: simulated time units).
	Start, Dur float64
}

// DefaultCap is the default span-buffer capacity of New.
const DefaultCap = 1 << 20

// Tracer records spans. All methods are safe for concurrent use; a nil
// *Tracer is a no-op on every path.
type Tracer struct {
	epoch time.Time
	cap   int
	reg   *metrics.Registry

	mu      sync.Mutex
	spans   []Span
	dropped atomic.Int64
}

// New returns a tracer with the default span capacity and no metrics
// registry: drops are counted only by Dropped.
func New() *Tracer { return NewSized(DefaultCap, nil) }

// NewSized returns a tracer holding at most cap spans (cap <= 0 means
// DefaultCap). Spans recorded beyond the cap are dropped, counted by
// Dropped and, when reg is non-nil, in reg under "tracing.dropped".
func NewSized(cap int, reg *metrics.Registry) *Tracer {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Tracer{epoch: time.Now(), cap: cap, reg: reg}
}

// Add records one span. Past the buffer cap the span is dropped and
// counted (see NewSized). It is a no-op on a nil receiver.
func (t *Tracer) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) >= t.cap {
		t.mu.Unlock()
		t.dropped.Add(1)
		t.reg.Counter("tracing.dropped").Inc()
		return
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Len returns the number of recorded spans (0 for a nil receiver).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns the number of spans dropped at the buffer cap (0 for
// a nil receiver).
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Spans returns a copy of the recorded spans in insertion order (nil
// for a nil receiver).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Region is an open wall-clock span returned by Begin; call End to
// record it. The zero Region (from a nil tracer) is a no-op.
type Region struct {
	t     *Tracer
	lane  string
	name  string
	cat   string
	start time.Time
}

// Begin opens a wall-clock span on the given lane; the returned
// Region's End records it. Nested Begin/End pairs on one lane render as
// nested slices in Chrome trace viewers. A nil tracer returns a no-op
// Region.
func (t *Tracer) Begin(lane, name, cat string) Region {
	if t == nil {
		return Region{}
	}
	return Region{t: t, lane: lane, name: name, cat: cat, start: time.Now()}
}

// End closes the region and records its span. It is a no-op on the zero
// Region.
func (r Region) End() {
	if r.t == nil {
		return
	}
	r.t.Add(Span{
		Clock: Wall,
		Lane:  r.lane,
		Name:  r.name,
		Cat:   r.cat,
		Start: r.start.Sub(r.t.epoch).Seconds(),
		Dur:   time.Since(r.start).Seconds(),
	})
}

// Chunk is one executed chunk on a simulated-time worker lane: the
// neutral form of the simulator's chunk records (sim.ChunkRecord), kept
// dependency-free so both sim and trace can feed it.
type Chunk struct {
	// Worker indexes the lane.
	Worker int
	// Start is the dispatch time, before the scheduling overhead.
	Start float64
	// Size is the number of iterations in the chunk.
	Size int
	// Elapsed is the execution time after the overhead.
	Elapsed float64
}

// AddWorkerLanes emits the simulated-time timeline of one run's chunk
// log under the given scope: per chunk an "overhead" span and a "busy"
// span, plus "idle" spans filling any gap between one chunk's end and
// the worker's next dispatch. Lanes are named scope + "/w<worker>", so
// a hierarchical scope ("scenario/case/app") yields the scenario ->
// case -> app -> chunk span hierarchy. Per lane, busy + overhead + idle
// sums to the worker's span from first dispatch to last completion —
// the same accounting trace.Analyze reports. It is a no-op on a nil
// receiver.
func (t *Tracer) AddWorkerLanes(scope string, chunks []Chunk, overhead float64) {
	if t == nil || len(chunks) == 0 {
		return
	}
	// Group chunk indices per worker preserving dispatch order (the
	// simulator logs chunks in event order, which is start-ordered per
	// worker).
	perWorker := map[int][]int{}
	order := []int{}
	for i, c := range chunks {
		if _, seen := perWorker[c.Worker]; !seen {
			order = append(order, c.Worker)
		}
		perWorker[c.Worker] = append(perWorker[c.Worker], i)
	}
	for _, w := range order {
		lane := laneName(scope, w)
		prevEnd := -1.0
		for _, i := range perWorker[w] {
			c := chunks[i]
			if prevEnd >= 0 && c.Start > prevEnd {
				t.Add(Span{Clock: Sim, Lane: lane, Name: "idle", Cat: "idle",
					Start: prevEnd, Dur: c.Start - prevEnd})
			}
			if overhead > 0 {
				t.Add(Span{Clock: Sim, Lane: lane, Name: "dispatch", Cat: "overhead",
					Start: c.Start, Dur: overhead})
			}
			t.Add(Span{Clock: Sim, Lane: lane, Name: chunkName(c.Size), Cat: "busy",
				Start: c.Start + overhead, Dur: c.Elapsed})
			prevEnd = c.Start + overhead + c.Elapsed
		}
	}
}

// laneName formats a worker lane under a scope. Workers are
// zero-padded to two digits so lexicographic lane order matches
// numeric worker order for the group sizes the paper uses.
func laneName(scope string, worker int) string {
	if scope == "" {
		scope = "run"
	}
	return fmt.Sprintf("%s/w%02d", scope, worker)
}

// chunkName labels a busy span with its chunk size.
func chunkName(size int) string { return fmt.Sprintf("chunk[%d]", size) }
