package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilPrimitivesAreNoOps(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Errorf("nil counter value = %d", c.Value())
	}
	var g *Gauge
	g.Add(1.5)
	g.Set(2)
	if g.Value() != 0 {
		t.Errorf("nil gauge value = %v", g.Value())
	}
	var tm *Timer
	tm.Observe(time.Second)
	if tm.Count() != 0 || tm.Total() != 0 {
		t.Errorf("nil timer = %d/%v", tm.Count(), tm.Total())
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Bounds() != nil {
		t.Errorf("nil histogram = %d/%v", h.Count(), h.Bounds())
	}
}

func TestNilRegistryLookups(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Timer("x") != nil ||
		r.Histogram("x", []float64{1}) != nil {
		t.Error("nil registry returned a live primitive")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Timers)+len(s.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

func TestCounterGaugeTimerHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Errorf("counter = %d", c.Value())
	}
	if r.Counter("c") != c {
		t.Error("counter lookup not idempotent")
	}
	g := r.Gauge("g")
	g.Add(1.5)
	g.Add(2.5)
	if g.Value() != 4 {
		t.Errorf("gauge = %v", g.Value())
	}
	g.Set(1)
	if g.Value() != 1 {
		t.Errorf("gauge after set = %v", g.Value())
	}
	tm := r.Timer("t")
	tm.Observe(2 * time.Second)
	tm.Observe(4 * time.Second)
	if tm.Count() != 2 || tm.Total() != 6*time.Second {
		t.Errorf("timer = %d/%v", tm.Count(), tm.Total())
	}
	h := r.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100, math.NaN()} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("histogram count = %d", h.Count())
	}
	got := h.bucketCounts()
	want := []int64{2, 1, 1, 1} // <=1: {0.5, 1}, <=2: {1.5}, <=4: {3}, +Inf: {100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
}

func TestHistogramInvalidBounds(t *testing.T) {
	r := NewRegistry()
	if r.Histogram("bad1", nil) != nil {
		t.Error("empty bounds accepted")
	}
	if r.Histogram("bad2", []float64{2, 1}) != nil {
		t.Error("descending bounds accepted")
	}
	if r.Histogram("bad3", []float64{1, math.Inf(1)}) != nil {
		t.Error("infinite bound accepted")
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines;
// run under -race this is the layer's thread-safety gate.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared")
			g := r.Gauge("gauge")
			h := r.Histogram("hist", []float64{0.5})
			tm := r.Timer("timer")
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%2) * 0.9)
				tm.Observe(time.Microsecond)
				r.Counter("lookup").Inc() // exercise the locked path too
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.Gauge("gauge").Value(); got != workers*iters {
		t.Errorf("gauge = %v, want %d", got, workers*iters)
	}
	if got := r.Histogram("hist", nil).Count(); got != workers*iters {
		t.Errorf("histogram = %d, want %d", got, workers*iters)
	}
	if got := r.Timer("timer").Count(); got != workers*iters {
		t.Errorf("timer = %d, want %d", got, workers*iters)
	}
}

func TestSnapshotJSONValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim.chunks").Add(42)
	r.Gauge("sim.busy_time").Add(1.25)
	r.Timer("sim.run_wall").Observe(10 * time.Millisecond)
	r.Histogram("sim.worker_utilization", []float64{0.5, 1}).Observe(0.7)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	for _, key := range []string{"counters", "gauges", "timers", "histograms"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("missing %q section", key)
		}
	}
	if !strings.Contains(buf.String(), `"+Inf"`) {
		t.Error("overflow bucket not serialized")
	}
}

func TestSnapshotCSV(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("name,with\"odd").Set(3)
	r.Histogram("h", []float64{1}).Observe(0.5)
	r.Timer("t").Observe(time.Second)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "kind,name,field,value" {
		t.Errorf("header = %q", lines[0])
	}
	// Counters come first, sorted by name.
	if lines[1] != "counter,a,value,1" || lines[2] != "counter,b,value,2" {
		t.Errorf("counter rows = %q, %q", lines[1], lines[2])
	}
	if !strings.Contains(buf.String(), `"name,with""odd"`) {
		t.Errorf("CSV escaping missing:\n%s", buf.String())
	}
}

func TestWriteToFiles(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	dir := t.TempDir()
	jsonPath := dir + "/m.json"
	csvPath := dir + "/m.csv"
	if err := WriteTo(r, jsonPath); err != nil {
		t.Fatal(err)
	}
	if err := WriteTo(r, csvPath); err != nil {
		t.Fatal(err)
	}
	if err := WriteTo(r, ""); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("JSON file invalid: %v", err)
	}
	if decoded.Counters["x"] != 1 {
		t.Errorf("counter in file = %d", decoded.Counters["x"])
	}
	csvData, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csvData), "kind,name,field,value\n") {
		t.Errorf("CSV file = %q", string(csvData))
	}
}
