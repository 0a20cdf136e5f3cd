package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Registry holds named metrics. Lookups take a mutex (call them at
// setup time and cache the returned pointers in hot loops); updates on
// the returned primitives are lock-free atomics, so one Registry may be
// shared by any number of goroutines. A nil *Registry is a no-op: every
// lookup returns a nil primitive, whose methods are themselves no-ops —
// the disabled path instrumented code rides on.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	timers     map[string]*Timer
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		timers:     map[string]*Timer{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns nil (a no-op counter).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use. A nil
// registry returns nil.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the named histogram, creating it with the given
// inclusive upper bounds on first use (later calls return the existing
// histogram and ignore bounds). A nil registry, or invalid bounds on
// first use, returns nil.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		var err error
		h, err = newHistogram(bounds)
		if err != nil {
			return nil
		}
		r.histograms[name] = h
	}
	return h
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TimerStats is one timer's snapshot.
type TimerStats struct {
	Count        int64   `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	MeanSeconds  float64 `json:"mean_seconds"`

	total time.Duration
}

// Bucket is one histogram bucket: the count of observations at or below
// LE (the last bucket's LE is +Inf, serialized as "+Inf").
type Bucket struct {
	LE    float64 `json:"-"`
	Count int64   `json:"count"`
}

// MarshalJSON emits {"le": <bound or "+Inf">, "count": n}.
func (b Bucket) MarshalJSON() ([]byte, error) {
	if !math.IsInf(b.LE, 1) {
		return json.Marshal(struct {
			LE    float64 `json:"le"`
			Count int64   `json:"count"`
		}{b.LE, b.Count})
	}
	return json.Marshal(struct {
		LE    string `json:"le"`
		Count int64  `json:"count"`
	}{"+Inf", b.Count})
}

// HistogramStats is one histogram's snapshot.
type HistogramStats struct {
	Count   int64    `json:"count"`
	Buckets []Bucket `json:"buckets"`

	bounds []float64
	counts []int64
}

// Snapshot is a point-in-time copy of a registry, with deterministic
// ordering: encoding/json sorts map keys, and the CSV writer emits rows
// in sorted (kind, name) order, so two snapshots of equal registries
// serialize identically.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]float64        `json:"gauges"`
	Timers     map[string]TimerStats     `json:"timers"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

// Snapshot copies the registry's current values. A nil registry yields
// an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Timers:     map[string]TimerStats{},
		Histograms: map[string]HistogramStats{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, t := range r.timers {
		n, tot := t.Count(), t.Total()
		ts := TimerStats{Count: n, TotalSeconds: tot.Seconds(), total: tot}
		if n > 0 {
			ts.MeanSeconds = tot.Seconds() / float64(n)
		}
		s.Timers[name] = ts
	}
	for name, h := range r.histograms {
		counts := h.bucketCounts()
		hs := HistogramStats{bounds: h.Bounds(), counts: counts}
		for i, c := range counts {
			le := math.Inf(1)
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			hs.Buckets = append(hs.Buckets, Bucket{LE: le, Count: c})
			hs.Count += c
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteCSV writes the snapshot as `kind,name,field,value` rows in
// sorted order.
func (s Snapshot) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "kind,name,field,value\n"); err != nil {
		return err
	}
	row := func(kind, name, field string, value any) error {
		_, err := fmt.Fprintf(w, "%s,%s,%s,%v\n", kind, csvEscape(name), field, value)
		return err
	}
	for _, name := range sortedKeys(s.Counters) {
		if err := row("counter", name, "value", s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if err := row("gauge", name, "value", s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Timers) {
		t := s.Timers[name]
		if err := row("timer", name, "count", t.Count); err != nil {
			return err
		}
		if err := row("timer", name, "total_seconds", t.TotalSeconds); err != nil {
			return err
		}
		if err := row("timer", name, "mean_seconds", t.MeanSeconds); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if err := row("histogram", name, "count", h.Count); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			le := "+Inf"
			if !math.IsInf(b.LE, 1) {
				le = fmt.Sprintf("%g", b.LE)
			}
			if err := row("histogram", name, "le="+le, b.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// csvEscape quotes a field containing commas or quotes.
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// WriteTo emits the registry to a destination as the CLIs' -metrics
// flag understands it:
//
//	""            no-op
//	"-", "json"   JSON to stdout
//	"csv"         CSV to stdout
//	"<path>.csv"  CSV file
//	"<path>"      JSON file
//
// A nil registry with a non-empty destination emits an empty snapshot.
func WriteTo(r *Registry, dest string) error {
	switch dest {
	case "":
		return nil
	case "-", "json":
		return r.Snapshot().WriteJSON(os.Stdout)
	case "csv":
		return r.Snapshot().WriteCSV(os.Stdout)
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	snap := r.Snapshot()
	if strings.HasSuffix(dest, ".csv") {
		err = snap.WriteCSV(f)
	} else {
		err = snap.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
