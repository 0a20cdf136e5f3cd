package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cdsf/internal/api"
	"cdsf/internal/cache"
	"cdsf/internal/events"
	"cdsf/internal/metrics"
	"cdsf/internal/store"
)

// The helpers below keep the SSE tests readable: a frame is one
// (id, event, data) triple off the wire.

type sseFrame struct {
	ID    int64
	Event string
	Data  events.Event
}

// readFrames reads SSE frames from r until EOF (log ended) or n
// frames have been read (n <= 0: until EOF).
func readFrames(t *testing.T, r *bufio.Reader, n int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	for n <= 0 || len(frames) < n {
		line, err := r.ReadString('\n')
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			frames = append(frames, cur)
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			cur.ID = events.ParseLastEventID(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.Data); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return frames
}

func getEvents(t *testing.T, base, id string) []events.Event {
	t.Helper()
	var evs []events.Event
	resp := getInto(t, base+"/v1/jobs/"+id+"/events", &evs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events for %s: status %d", id, resp.StatusCode)
	}
	return evs
}

func eventTypes(evs []events.Event) []events.Type {
	types := make([]events.Type, len(evs))
	for i, ev := range evs {
		types[i] = ev.Type
	}
	return types
}

func TestJobEventsLifecycleJSON(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var j api.Job
	post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "greedy"}, &j)
	waitState(t, ts.URL, j.ID, api.JobDone)

	evs := getEvents(t, ts.URL, j.ID)
	if len(evs) < 4 {
		t.Fatalf("journal has %d events (%v), want at least accepted/queued/started/done", len(evs), eventTypes(evs))
	}
	for i, ev := range evs {
		if ev.Seq != int64(i)+1 {
			t.Fatalf("event %d has seq %d, want %d (journal %v)", i, ev.Seq, i+1, evs)
		}
		if ev.Job != j.ID {
			t.Errorf("event %d carries job %q, want %q", i, ev.Job, j.ID)
		}
	}
	if evs[0].Type != events.TypeAccepted || evs[1].Type != events.TypeQueued || evs[2].Type != events.TypeStarted {
		t.Errorf("journal starts %v, want accepted/queued/started", eventTypes(evs[:3]))
	}
	if evs[0].Detail != string(api.KindSolve) {
		t.Errorf("accepted detail %q, want job kind", evs[0].Detail)
	}
	last := evs[len(evs)-1]
	if last.Type != events.TypeDone || !last.Type.Terminal() {
		t.Errorf("journal ends with %s, want done", last.Type)
	}

	// Bad follow values and unknown jobs are rejected.
	if resp := getInto(t, ts.URL+"/v1/jobs/"+j.ID+"/events?follow=2", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("follow=2 status %d, want 400", resp.StatusCode)
	}
	if resp := getInto(t, ts.URL+"/v1/jobs/job-999999/events", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job events status %d, want 404", resp.StatusCode)
	}
}

func TestJobEventsCachedReplay(t *testing.T) {
	reg := metrics.NewRegistry()
	_, ts := newTestServer(t, Options{
		Metrics: reg,
		Cache:   cache.New(cache.Options{Metrics: reg}),
	})
	var a, b api.Job
	post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "greedy"}, &a)
	waitState(t, ts.URL, a.ID, api.JobDone)
	post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "greedy"}, &b)
	waitState(t, ts.URL, b.ID, api.JobDone)

	types := eventTypes(getEvents(t, ts.URL, b.ID))
	want := []events.Type{events.TypeAccepted, events.TypeCacheResultHit, events.TypeDone}
	if len(types) != len(want) {
		t.Fatalf("cached job journal %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("cached job journal %v, want %v", types, want)
		}
	}
}

func TestJobEventsSSETermination(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var j api.Job
	post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "greedy"}, &j)
	waitState(t, ts.URL, j.ID, api.JobDone)

	// The job is terminal, so its log has ended: a follow stream
	// replays everything and then ends on its own.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("follow content type %q", ct)
	}
	frames := readFrames(t, bufio.NewReader(resp.Body), 0)

	evs := getEvents(t, ts.URL, j.ID)
	if len(frames) != len(evs) {
		t.Fatalf("SSE replayed %d frames, journal has %d events", len(frames), len(evs))
	}
	for i, f := range frames {
		if f.ID != evs[i].Seq || f.Event != string(evs[i].Type) || f.Data.Seq != evs[i].Seq {
			t.Errorf("frame %d = id %d event %s, journal seq %d type %s", i, f.ID, f.Event, evs[i].Seq, evs[i].Type)
		}
	}
	if last := frames[len(frames)-1]; !events.Type(last.Event).Terminal() {
		t.Errorf("stream ended on %s, want a terminal event", last.Event)
	}
}

func TestJobEventsSSEResume(t *testing.T) {
	s, ts := newTestServer(t, Options{Queue: 4, Executors: 1})
	var j api.Job
	post(t, ts.URL+"/v1/simulate", longSimulate(), &j)
	waitState(t, ts.URL, j.ID, api.JobRunning)

	// First connection: read through the started event, then drop.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	first := readFrames(t, bufio.NewReader(resp.Body), 3)
	resp.Body.Close()
	if len(first) != 3 || first[2].Event != string(events.TypeStarted) {
		t.Fatalf("first connection read %+v, want accepted/queued/started", first)
	}
	cursor := first[len(first)-1].ID

	// Finish the job while disconnected, then reconnect with the
	// standard Last-Event-ID header: the stream resumes at cursor+1 and
	// ends at the terminal event, with no duplicates and no gaps.
	cancelJob(t, ts.URL, j.ID)
	waitState(t, ts.URL, j.ID, api.JobCancelled)

	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+j.ID+"/events?follow=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", strconv.FormatInt(cursor, 10))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	rest := readFrames(t, bufio.NewReader(resp2.Body), 0)
	if len(rest) == 0 {
		t.Fatal("resumed stream was empty")
	}
	if rest[0].ID != cursor+1 {
		t.Errorf("resumed stream starts at seq %d, want %d", rest[0].ID, cursor+1)
	}
	if last := rest[len(rest)-1]; last.Event != string(events.TypeCancelled) {
		t.Errorf("resumed stream ends on %s, want cancelled", last.Event)
	}

	// The two connections together replay the journal exactly.
	evs := getEvents(t, ts.URL, j.ID)
	combined := append(first, rest...)
	if len(combined) != len(evs) {
		t.Fatalf("combined stream has %d frames, journal %d events", len(combined), len(evs))
	}
	for i, f := range combined {
		if f.ID != evs[i].Seq {
			t.Errorf("combined frame %d has seq %d, journal %d", i, f.ID, evs[i].Seq)
		}
	}
	_ = s
}

// cancelJob issues DELETE /v1/jobs/{id}.
func cancelJob(t *testing.T, base, id string) {
	t.Helper()
	req, err := http.NewRequest("DELETE", base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// 200 for queued jobs (cancelled synchronously), 202 for running
	// jobs (cancellation requested, context cancelled).
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE job %s: status %d", id, resp.StatusCode)
	}
}

func TestRequestMetricsMiddleware(t *testing.T) {
	reg := metrics.NewRegistry()
	_, ts := newTestServer(t, Options{Metrics: reg})
	var j api.Job
	post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "greedy"}, &j)
	waitState(t, ts.URL, j.ID, api.JobDone)
	getInto(t, ts.URL+"/v1/jobs", nil)
	getInto(t, ts.URL+"/v1/healthz", nil)
	getInto(t, ts.URL+"/v1/jobs/job-999999", nil)

	snap := reg.Snapshot()
	for counter, min := range map[string]int64{
		"http.requests.solve.202":   1,
		"http.requests.jobs.200":    1,
		"http.requests.job.200":     1, // waitState polls
		"http.requests.job.404":     1,
		"http.requests.healthz.200": 1,
	} {
		if got := snap.Counters[counter]; got < min {
			t.Errorf("counter %s = %d, want >= %d", counter, got, min)
		}
	}
	hist, ok := snap.Histograms["http.latency_seconds.solve"]
	if !ok || hist.Count < 1 {
		t.Fatalf("no latency histogram for the solve route: %+v", snap.Histograms)
	}
	var total int64
	for _, b := range hist.Buckets {
		total += b.Count
	}
	if total != hist.Count {
		t.Errorf("latency buckets sum to %d, histogram count %d", total, hist.Count)
	}

	// The Prometheus rendering exposes the same data as cumulative
	// le-labeled buckets.
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	for _, want := range []string{
		"http_requests_solve_202 ",
		`http_latency_seconds_solve_bucket{le="`,
		`http_latency_seconds_solve_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

// TestEventsDeterminism pins the central observability guarantee: the
// seeded solve result document is byte-identical whether structured
// logging is on or off (the event log is always on).
func TestEventsDeterminism(t *testing.T) {
	var logBuf syncBuffer
	run := func(opts Options) json.RawMessage {
		_, ts := newTestServer(t, opts)
		var j api.Job
		post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "exhaustive"}, &j)
		return waitState(t, ts.URL, j.ID, api.JobDone).Result
	}
	plain := run(Options{})
	observed := run(Options{
		Logger: slog.New(slog.NewJSONHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	if !bytes.Equal(plain, observed) {
		t.Errorf("result documents differ with observability on:\nplain:    %s\nobserved: %s", plain, observed)
	}
	out := logBuf.String()
	if out == "" {
		t.Fatal("no log output despite a debug-level logger")
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !json.Valid([]byte(line)) {
			t.Errorf("log line is not valid JSON: %q", line)
		}
	}
}

// TestJobLogLinesAreItsRecords pins that a job's log lines are derived
// from its store records, one "job <type>" line per record, on every
// path a job takes: run to done, answered from the result tier at
// admission, cancelled while queued, cancelled while running (with
// progress ticks at debug), and failed when its accepted append fails.
// A job's lines are its event log without the derived cache events,
// and the healthz tally counts the same transitions the lines do.
func TestJobLogLinesAreItsRecords(t *testing.T) {
	var logBuf syncBuffer
	fs := newFaultStore()
	reg := metrics.NewRegistry()
	_, ts := newTestServer(t, Options{Store: fs, Metrics: reg, Queue: 4, Executors: 1,
		Cache:  cache.New(cache.Options{Metrics: reg}),
		Logger: slog.New(slog.NewJSONHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))})

	done := submitSolve(t, ts.URL, api.SolveRequest{Heuristic: "greedy"})
	waitState(t, ts.URL, done.ID, api.JobDone)
	cached := submitSolve(t, ts.URL, api.SolveRequest{Heuristic: "greedy"})
	var running, queued api.Job
	post(t, ts.URL+"/v1/simulate", longSimulate(), &running)
	waitState(t, ts.URL, running.ID, api.JobRunning)
	post(t, ts.URL+"/v1/simulate", longSimulate(), &queued)
	cancelJob(t, ts.URL, queued.ID)
	fs.failOn(events.TypeAccepted)
	if resp := post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "twophase"}, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("solve with a failing accepted append: status %d, want 500", resp.StatusCode)
	}
	const failedID = "job-000005" // the fifth job admitted
	fs.failOn()
	// Cancel the running job once it has recorded progress.
	isProgress := func(ev events.Event) bool { return ev.Type == events.TypeProgress }
	for deadline := time.Now().Add(30 * time.Second); !slices.ContainsFunc(getEvents(t, ts.URL, running.ID), isProgress); {
		if time.Now().After(deadline) {
			t.Fatal("running job recorded no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancelJob(t, ts.URL, running.ID)
	waitState(t, ts.URL, running.ID, api.JobCancelled)

	lines := map[string][]map[string]any{}
	tally := map[string]int64{}
	for _, l := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var line map[string]any
		if err := json.Unmarshal([]byte(l), &line); err != nil {
			t.Fatalf("log line %q: %v", l, err)
		}
		msg, _ := line["msg"].(string)
		typ, ok := strings.CutPrefix(msg, "job ")
		if !ok || strings.Contains(typ, " ") {
			continue // not a record's line
		}
		job, _ := line["job"].(string)
		lines[job] = append(lines[job], line)
		tally[typ]++
		level := map[string]string{"progress": "DEBUG", "failed": "ERROR"}[typ]
		if level == "" {
			level = "INFO"
		}
		if line["level"] != level {
			t.Errorf("%s line at level %v, want %s", msg, line["level"], level)
		}
	}

	for _, id := range []string{done.ID, cached.ID, queued.ID, running.ID, failedID} {
		var want []events.Type
		for _, ev := range getEvents(t, ts.URL, id) {
			if ev.Type != events.TypeCacheResultHit && ev.Type != events.TypeCacheWarm {
				want = append(want, ev.Type)
			}
		}
		var got []events.Type
		for _, line := range lines[id] {
			got = append(got, events.Type(strings.TrimPrefix(line["msg"].(string), "job ")))
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: log lines %v, want its records %v", id, got, want)
		}
	}
	if t.Failed() {
		return
	}
	if l := lines[done.ID][0]; l["kind"] != "solve" {
		t.Errorf("accepted line %v, want kind solve", l)
	}
	if l := lines[cached.ID][1]; l["cache_key"] != getJob(t, ts.URL, cached.ID).Cache.Key {
		t.Errorf("cached done line %v, want the job's cache key", l)
	}
	if l := lines[failedID][1]; !strings.Contains(fmt.Sprint(l["detail"]), errInjected.Error()) {
		t.Errorf("failed line %v, want the store error as detail", l)
	}

	var h api.Health
	getInto(t, ts.URL+"/v1/healthz", &h)
	if want := (api.HealthJobs{Submitted: tally["accepted"], Done: tally["done"], Failed: tally["failed"],
		Cancelled: tally["cancelled"] + tally["drained"]}); h.Jobs != want || want.Submitted != 5 {
		t.Errorf("healthz jobs %+v, want the line tally %+v over 5 jobs", h.Jobs, want)
	}
}

// syncBuffer makes a bytes.Buffer safe to read while the server's
// handler goroutines may still be logging (the middleware logs after
// the response bytes have reached the client).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// sameEvents fails the test unless got replays want: the same seq,
// type, detail and time, event for event.
func sameEvents(t *testing.T, got, want []events.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("log has %d events %v, want %d %v", len(got), eventTypes(got), len(want), eventTypes(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.Type != w.Type || g.Detail != w.Detail || !g.Time.Equal(w.Time) {
			t.Errorf("event %d = %d %s %q %v, want %d %s %q %v",
				i, g.Seq, g.Type, g.Detail, g.Time, w.Seq, w.Type, w.Detail, w.Time)
		}
	}
}

// followAll reads a job's whole SSE stream, which must end on its own.
func followAll(t *testing.T, base, id string) []sseFrame {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow %s: status %d", id, resp.StatusCode)
	}
	return readFrames(t, bufio.NewReader(resp.Body), 0)
}

// TestJobEventsSurviveRestart pins the WAL-backed event history: a
// finished job's log is rebuilt from the journal, so a restarted
// server serves the same events, as JSON and as a stream that ends.
func TestJobEventsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	w, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Store: w})
	ts := httptest.NewServer(s.Handler())
	j := submitSolve(t, ts.URL, api.SolveRequest{Heuristic: "greedy", Seed: 3})
	waitState(t, ts.URL, j.ID, api.JobDone)
	before := getEvents(t, ts.URL, j.ID)
	s.Drain(time.Second) // closes the WAL
	ts.Close()

	w2, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Options{Store: w2})
	sameEvents(t, getEvents(t, ts2.URL, j.ID), before)

	frames := followAll(t, ts2.URL, j.ID)
	if len(frames) != len(before) {
		t.Fatalf("restarted stream replayed %d frames, log has %d", len(frames), len(before))
	}
	for i, f := range frames {
		if f.ID != before[i].Seq || f.Event != string(before[i].Type) || f.Data.Detail != before[i].Detail {
			t.Errorf("frame %d = id %d %s %q, want seq %d %s %q", i, f.ID, f.Event, f.Data.Detail,
				before[i].Seq, before[i].Type, before[i].Detail)
		}
	}
}

// TestRecoveredJobEventsContinue follows a job a crash interrupted:
// its log keeps the pre-crash events, continues with the recovery
// re-queue under the next seq, and ends at done.
func TestRecoveredJobEventsContinue(t *testing.T) {
	raw, err := json.Marshal(api.SolveRequest{Heuristic: "tabu", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	id := w.NextID()
	for _, rec := range []store.Record{
		{Job: id, Type: events.TypeAccepted, Kind: api.KindSolve, Request: raw},
		{Job: id, Type: events.TypeQueued},
		{Job: id, Type: events.TypeStarted},
	} {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	crashed, _, _ := w.Events(id, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Store: w2})
	frames := followAll(t, ts.URL, id)
	evs := getEvents(t, ts.URL, id)
	if len(evs) < len(crashed)+3 {
		t.Fatalf("recovered log %v, want the pre-crash events then queued/started/done", eventTypes(evs))
	}
	sameEvents(t, evs[:len(crashed)], crashed)
	if re := evs[len(crashed)]; re.Seq != int64(len(crashed))+1 || re.Type != events.TypeQueued || re.Detail != "recovered after restart" {
		t.Errorf("first event after the crash = %d %s %q, want %d queued \"recovered after restart\"",
			re.Seq, re.Type, re.Detail, len(crashed)+1)
	}
	for i, ev := range evs {
		if ev.Seq != int64(i)+1 {
			t.Fatalf("recovered log seqs %v are not 1..%d", evs, len(evs))
		}
	}
	if last := evs[len(evs)-1]; last.Type != events.TypeDone {
		t.Errorf("recovered log ends with %s, want done", last.Type)
	}
	if len(frames) != len(evs) || frames[len(frames)-1].Event != string(events.TypeDone) {
		t.Errorf("recovered stream had %d frames, log %d events ending %s", len(frames), len(evs), evs[len(evs)-1].Type)
	}
}

// stallWriter is a streaming ResponseWriter whose Write blocks until
// release is closed, standing in for a client that stopped reading.
type stallWriter struct {
	header  http.Header
	stalled chan struct{} // closed when the first Write blocks
	release chan struct{}
	once    sync.Once
	mu      sync.Mutex
	buf     bytes.Buffer
}

func (w *stallWriter) Header() http.Header { return w.header }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Flush()              {}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.stalled) })
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// TestStalledFollowerNeverDelaysJob follows a job with a client that
// stops reading at its first frame: the job's store appends still
// return and it reaches done, and the stream catches up and ends once
// the client reads again.
func TestStalledFollowerNeverDelaysJob(t *testing.T) {
	fs := newFaultStore()
	s, ts := newTestServer(t, Options{Queue: 4, Executors: 1, Store: fs})
	// Occupy the only executor so the followed job is still queued when
	// its follower stalls.
	var blocker, j api.Job
	post(t, ts.URL+"/v1/simulate", longSimulate(), &blocker)
	waitState(t, ts.URL, blocker.ID, api.JobRunning)
	post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "greedy"}, &j)

	sw := &stallWriter{header: http.Header{}, stalled: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(sw.release) }) }
	defer release() // unblocks the handler if the test fails early
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Handler().ServeHTTP(sw, httptest.NewRequest("GET", "/v1/jobs/"+j.ID+"/events?follow=1", nil))
	}()
	select {
	case <-sw.stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("follower never wrote")
	}

	cancelJob(t, ts.URL, blocker.ID)
	waitState(t, ts.URL, j.ID, api.JobDone)
	deadline := time.Now().Add(10 * time.Second)
	for !fs.returned(j.ID, events.TypeDone) {
		if time.Now().After(deadline) {
			t.Fatal("the done append never returned while the follower stalled")
		}
		time.Sleep(time.Millisecond)
	}

	release()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not end after the client resumed")
	}
	sw.mu.Lock()
	frames := readFrames(t, bufio.NewReader(bytes.NewReader(sw.buf.Bytes())), 0)
	sw.mu.Unlock()
	evs := getEvents(t, ts.URL, j.ID)
	if len(frames) != len(evs) || frames[len(frames)-1].Event != string(events.TypeDone) {
		t.Fatalf("stalled stream delivered %d frames, log has %d events", len(frames), len(evs))
	}
	for i, f := range frames {
		if f.ID != int64(i)+1 {
			t.Fatalf("stalled stream frame %d has seq %d", i, f.ID)
		}
	}
}
