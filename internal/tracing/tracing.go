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
// Event Format file (chrome://tracing, Perfetto); see WriteChrome. A
// chunk log also renders as an ASCII report.Gantt for terminals (see
// BuildGantt).
//
// Like package metrics, the disabled path is free of surprises: a nil
// *Tracer is a no-op on every method, recording derives only from
// finished results and real time — never from the simulation's rng
// streams — and seeded outputs are bit-identical with tracing on or
// off. When the span buffer reaches its cap, further spans are counted
// ("tracing.dropped" in the tracer's metrics registry) rather than
// silently discarded.
//
// Engines receive a tracer, together with a metrics registry and a
// progress board, as one Scope in the Obs field of their configs.
//
// Only the standard library (plus the sibling internal packages
// metrics and report) is used.
package tracing

import (
	"sync"
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

	mu    sync.Mutex
	spans []Span
}

// New returns a tracer with the default span capacity and no metrics
// registry, so drops at the cap go uncounted.
func New() *Tracer { return NewSized(DefaultCap, nil) }

// NewSized returns a tracer holding at most cap spans (cap <= 0 means
// DefaultCap). Spans recorded beyond the cap are dropped and, when reg
// is non-nil, counted in reg under "tracing.dropped".
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
