package tracing

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"cdsf/internal/metrics"
)

func TestNilTracerNoOp(t *testing.T) {
	var tr *Tracer
	tr.Add(Span{Name: "x"})
	tr.AddWorkerLanes("s", []Chunk{{Worker: 0, Start: 0, Size: 1, Elapsed: 1}}, 0.5)
	r := tr.Begin("lane", "name", "cat")
	r.End()
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Error("nil tracer recorded something")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("nil WriteChrome: %v", err)
	}
	var file struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("nil trace not valid JSON: %v", err)
	}
	if file.TraceEvents == nil {
		t.Error("nil trace missing traceEvents array")
	}
}

func TestAddAndSpans(t *testing.T) {
	tr := New()
	tr.Add(Span{Clock: Sim, Lane: "a", Name: "one", Start: 0, Dur: 1})
	tr.Add(Span{Clock: Sim, Lane: "b", Name: "two", Start: 1, Dur: 2})
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := tr.Spans()
	if got[0].Name != "one" || got[1].Name != "two" {
		t.Errorf("spans out of order: %+v", got)
	}
	// The copy must be independent of the recorder.
	got[0].Name = "mutated"
	if tr.Spans()[0].Name != "one" {
		t.Error("Spans returned aliased storage")
	}
}

func TestBeginEndRecordsWallSpan(t *testing.T) {
	tr := New()
	r := tr.Begin("lane", "work", "stage1")
	r.End()
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("%d spans", len(spans))
	}
	s := spans[0]
	if s.Clock != Wall || s.Lane != "lane" || s.Name != "work" || s.Cat != "stage1" {
		t.Errorf("span = %+v", s)
	}
	if s.Start < 0 || s.Dur < 0 {
		t.Errorf("negative times: %+v", s)
	}
}

// Satellite: spans beyond the buffer cap are dropped and counted in the
// metrics registry, not silently discarded.
func TestCapDropsIntoMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := NewSized(2, reg)
	for i := 0; i < 5; i++ {
		tr.Add(Span{Name: "s"})
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
	if v := reg.Counter("tracing.dropped").Value(); v != 3 {
		t.Errorf("tracing.dropped counter = %d, want 3", v)
	}
}

func TestConcurrentAdd(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Begin("lane", "n", "c").End()
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Errorf("Len = %d, want 800", tr.Len())
	}
}

func TestAddWorkerLanes(t *testing.T) {
	tr := New()
	// Worker 0: two chunks with a gap; worker 1: one chunk.
	chunks := []Chunk{
		{Worker: 0, Start: 0, Size: 4, Elapsed: 2},   // [0, 0.5+2=2.5]
		{Worker: 1, Start: 0, Size: 8, Elapsed: 5},   // [0, 5.5]
		{Worker: 0, Start: 4, Size: 2, Elapsed: 1.5}, // idle [2.5,4], then [4, 6]
	}
	tr.AddWorkerLanes("app", chunks, 0.5)
	byLane := map[string]map[string]float64{}
	for _, s := range tr.Spans() {
		if s.Clock != Sim {
			t.Fatalf("worker-lane span on wall clock: %+v", s)
		}
		if byLane[s.Lane] == nil {
			byLane[s.Lane] = map[string]float64{}
		}
		byLane[s.Lane][s.Cat] += s.Dur
	}
	w0 := byLane["app/w00"]
	if math.Abs(w0["busy"]-3.5) > 1e-12 || math.Abs(w0["overhead"]-1) > 1e-12 || math.Abs(w0["idle"]-1.5) > 1e-12 {
		t.Errorf("w00 sums = %v", w0)
	}
	w1 := byLane["app/w01"]
	if math.Abs(w1["busy"]-5) > 1e-12 || math.Abs(w1["overhead"]-0.5) > 1e-12 || w1["idle"] != 0 {
		t.Errorf("w01 sums = %v", w1)
	}
	// busy + overhead + idle spans the lane end to end.
	if total := w0["busy"] + w0["overhead"] + w0["idle"]; math.Abs(total-6) > 1e-12 {
		t.Errorf("w00 total = %v, want 6", total)
	}
}

func TestAddWorkerLanesNoOverhead(t *testing.T) {
	tr := New()
	tr.AddWorkerLanes("", []Chunk{{Worker: 3, Start: 1, Size: 2, Elapsed: 4}}, 0)
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("%d spans, want 1 (no overhead span)", len(spans))
	}
	if spans[0].Lane != "run/w03" {
		t.Errorf("empty scope lane = %q", spans[0].Lane)
	}
}

func TestWriteChromeValidAndDeterministic(t *testing.T) {
	tr := New()
	tr.AddWorkerLanes("fac", []Chunk{
		{Worker: 0, Start: 0, Size: 4, Elapsed: 2},
		{Worker: 1, Start: 0.5, Size: 4, Elapsed: 3},
	}, 1)
	tr.Add(Span{Clock: Sim, Lane: "fac/serial", Name: "serial phase", Cat: "serial", Start: 0, Dur: 0.5})

	var a, b bytes.Buffer
	if err := tr.WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two exports of the same tracer differ")
	}

	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(a.Bytes(), &file); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	names := map[string]bool{}
	var xEvents, mEvents int
	for _, e := range file.TraceEvents {
		switch e.Ph {
		case "X":
			xEvents++
			if e.PID != 2 {
				t.Errorf("sim span on pid %d: %+v", e.PID, e)
			}
			if e.TID == 0 {
				t.Errorf("X event without thread: %+v", e)
			}
		case "M":
			mEvents++
			if n, ok := e.Args["name"].(string); ok {
				names[n] = true
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	// 2 chunks x (overhead + busy) + 1 serial span.
	if xEvents != 5 {
		t.Errorf("%d X events, want 5", xEvents)
	}
	for _, want := range []string{"simulated time", "fac/w00", "fac/w01", "fac/serial"} {
		if !names[want] {
			t.Errorf("metadata name %q missing (have %v)", want, names)
		}
	}
}

func TestWriteChromeWallClockConversion(t *testing.T) {
	tr := New()
	tr.Add(Span{Clock: Wall, Lane: "stage1", Name: "precompute", Start: 0.5, Dur: 0.25})
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			PID int     `json:"pid"`
			TS  float64 `json:"ts"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	for _, e := range file.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if e.PID != 1 {
			t.Errorf("wall span on pid %d", e.PID)
		}
		if e.TS != 0.5e6 || e.Dur != 0.25e6 {
			t.Errorf("wall us = (%v, %v), want (5e5, 2.5e5)", e.TS, e.Dur)
		}
	}
}
