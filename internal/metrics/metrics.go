// Package metrics is the zero-dependency observability layer of the
// CDSF reproduction: atomic counters, gauges, timers, and fixed-bucket
// histograms collected into a Registry that is safe under the worker
// pools of the Stage-I search engine and the Stage-II replicator.
//
// The layer is built for hot paths. Every primitive has a nil-receiver
// no-op fast path, so instrumented code holds plain pointers and pays
// one predictable nil check when metrics are disabled:
//
//	var c *metrics.Counter // nil: disabled
//	c.Add(1)               // no-op, no allocation, no branch misses
//
// Instrumentation never draws from the simulation rng streams and never
// reorders events, so seeded runs are bit-identical with metrics on or
// off — the determinism tests in internal/sim assert exactly that.
//
// Only the standard library is used.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. It is a no-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. It is a no-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 accumulator for quantities that are summed
// rather than counted (simulated busy time, idle time, ...). The zero
// value is ready to use; a nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Add folds v into the gauge with a compare-and-swap loop. It is a
// no-op on a nil receiver.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Set replaces the gauge value. It is a no-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 for a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Timer accumulates wall-clock durations. The zero value is ready to
// use; a nil *Timer is a no-op.
type Timer struct {
	count atomic.Int64
	nanos atomic.Int64
}

// Observe folds one duration into the timer. It is a no-op on a nil
// receiver.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.count.Add(1)
	t.nanos.Add(int64(d))
}

// Count returns the number of observations (0 for a nil receiver).
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Total returns the accumulated duration (0 for a nil receiver).
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.nanos.Load())
}

// Histogram counts observations into fixed buckets with inclusive upper
// bounds; values above the last bound land in an implicit +Inf bucket.
// Observations are a binary search plus one atomic add — no allocation.
// A nil *Histogram is a no-op.
type Histogram struct {
	bounds []float64 // ascending upper bounds, exclusive of +Inf
	counts []int64   // len(bounds)+1; last is the overflow bucket
}

// newHistogram validates bounds (ascending, finite, non-empty) and
// builds the bucket array.
func newHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("metrics: histogram with no bounds")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("metrics: histogram bound %v", b)
		}
		if i > 0 && b <= bounds[i-1] {
			return nil, fmt.Errorf("metrics: histogram bounds not ascending at %d", i)
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}, nil
}

// Observe counts v into its bucket. NaN observations are dropped. It is
// a no-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: inclusive upper bounds
	atomic.AddInt64(&h.counts[i], 1)
}

// Count returns the total number of observations (0 for a nil
// receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	n := int64(0)
	for i := range h.counts {
		n += atomic.LoadInt64(&h.counts[i])
	}
	return n
}

// Bounds returns a copy of the bucket upper bounds (nil for a nil
// receiver).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// bucketCounts returns an atomic snapshot copy of the per-bucket counts.
func (h *Histogram) bucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = atomic.LoadInt64(&h.counts[i])
	}
	return out
}
