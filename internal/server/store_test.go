package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
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

// submitSolve posts one solve request and returns the accepted
// envelope.
func submitSolve(t *testing.T, base string, req api.SolveRequest) api.Job {
	t.Helper()
	var j api.Job
	resp := post(t, base+"/v1/solve", req, &j)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	return j
}

// solveReference runs req on a fresh server and returns the result
// bytes as served — the byte-identity baseline for store replay.
func solveReference(t *testing.T, req api.SolveRequest) []byte {
	t.Helper()
	_, ts := newTestServer(t, Options{})
	j := submitSolve(t, ts.URL, req)
	return waitState(t, ts.URL, j.ID, api.JobDone).Result
}

func TestJobsPagination(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	ids := make([]string, 5)
	for i := range ids {
		j := submitSolve(t, ts.URL, api.SolveRequest{Heuristic: "greedy"})
		waitState(t, ts.URL, j.ID, api.JobDone)
		ids[i] = j.ID
	}

	page := func(query string) api.JobList {
		t.Helper()
		var l api.JobList
		resp := getInto(t, ts.URL+"/v1/jobs"+query, &l)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs%s: status %d", query, resp.StatusCode)
		}
		return l
	}
	got := func(l api.JobList) []string {
		out := make([]string, len(l.Jobs))
		for i, j := range l.Jobs {
			out[i] = j.ID
		}
		return out
	}

	// Unpaginated: everything, no cursor.
	all := page("")
	if len(all.Jobs) != 5 || all.Total != 5 || all.Next != "" {
		t.Fatalf("unpaginated list: %d jobs, total %d, next %q", len(all.Jobs), all.Total, all.Next)
	}

	// Page through with limit=2: 2 + 2 + 1, cursors chaining, total
	// constant throughout.
	p1 := page("?limit=2")
	if fmt.Sprint(got(p1)) != fmt.Sprint(ids[:2]) || p1.Total != 5 || p1.Next != ids[1] {
		t.Fatalf("page 1: ids %v total %d next %q", got(p1), p1.Total, p1.Next)
	}
	p2 := page("?limit=2&after=" + p1.Next)
	if fmt.Sprint(got(p2)) != fmt.Sprint(ids[2:4]) || p2.Total != 5 || p2.Next != ids[3] {
		t.Fatalf("page 2: ids %v total %d next %q", got(p2), p2.Total, p2.Next)
	}
	p3 := page("?limit=2&after=" + p2.Next)
	if fmt.Sprint(got(p3)) != fmt.Sprint(ids[4:]) || p3.Total != 5 || p3.Next != "" {
		t.Fatalf("page 3: ids %v total %d next %q", got(p3), p3.Total, p3.Next)
	}

	// A state filter composes with pagination, and total still counts
	// every match.
	f := page("?state=done&limit=3")
	if len(f.Jobs) != 3 || f.Total != 5 || f.Next != ids[2] {
		t.Fatalf("filtered page: %d jobs, total %d, next %q", len(f.Jobs), f.Total, f.Next)
	}
	if n := page("?state=failed"); n.Total != 0 || len(n.Jobs) != 0 {
		t.Fatalf("failed filter: %+v", n)
	}

	// Bad cursors and limits are the client's fault.
	for _, q := range []string{"?after=job-999999", "?limit=0", "?limit=-1", "?limit=x"} {
		if resp := getInto(t, ts.URL+"/v1/jobs"+q, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/jobs%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestRetryAfterDividesByExecutors(t *testing.T) {
	// A bare server (executors never started): 8 queued jobs at a 2s
	// mean over 4 executors drain in ceil(8x2/4) = 4 seconds, not 16.
	s := &Server{opts: Options{Queue: 16, Executors: 4}, queue: make(chan *job, 16)}
	for i := 0; i < 8; i++ {
		s.queue <- &job{}
	}
	for i := 0; i < 3; i++ {
		s.recordWall(2 * time.Second)
	}
	if got := s.retryAfterSeconds(); got != 4 {
		t.Errorf("retryAfterSeconds = %d, want 4", got)
	}
}

func TestServerRecoversInterruptedJobs(t *testing.T) {
	// Journal an accepted solve whose executor never finished — the
	// state a kill -9 mid-job leaves behind — then hand the store to a
	// fresh server: the job re-runs under its own id to the exact bytes
	// of an uninterrupted run.
	req := api.SolveRequest{Heuristic: "tabu", Seed: 7}
	raw, err := json.Marshal(req)
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
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	_, ts := newTestServer(t, Options{Store: w2, Metrics: reg})
	done := waitState(t, ts.URL, id, api.JobDone)
	if want := solveReference(t, req); string(done.Result) != string(want) {
		t.Errorf("recovered result differs from uninterrupted run:\n%s\nvs\n%s", done.Result, want)
	}
	if n := w2.Stats().RecoveredJobs; n != 1 {
		t.Errorf("store recovered %d jobs, want 1", n)
	}
}

func TestWALServerServesReplayedResults(t *testing.T) {
	req := api.SolveRequest{Heuristic: "greedy", Seed: 3}
	dir := t.TempDir()
	w, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Store: w})
	ts := httptest.NewServer(s.Handler())
	j := submitSolve(t, ts.URL, req)
	first := waitState(t, ts.URL, j.ID, api.JobDone)
	s.Drain(time.Second) // closes the WAL
	ts.Close()

	// A restarted server on the same directory serves the finished job
	// bit-for-bit without re-running anything.
	w2, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Options{Store: w2})
	replayed := getJob(t, ts2.URL, j.ID)
	if replayed.State != api.JobDone || string(replayed.Result) != string(first.Result) {
		t.Fatalf("replayed job: state %s, bytes match %v", replayed.State,
			string(replayed.Result) == string(first.Result))
	}

	var h api.Health
	getInto(t, ts2.URL+"/v1/healthz", &h)
	if h.Store == nil || h.Store.Backend != "wal" {
		t.Fatalf("healthz store block: %+v", h.Store)
	}
	if h.Store.ReplayedJobs != 1 || h.Store.RecoveredJobs != 0 || h.Store.ReplayedRecords == 0 {
		t.Errorf("healthz replay stats: %+v", *h.Store)
	}
}

// errInjected is the failure a faultStore returns.
var errInjected = errors.New("injected store failure")

// faultStore is a memory store that applies every record, as a durable
// store does whatever the journaling outcome, and then returns
// errInjected for the record types it is told to fail. It also notes
// which appends have returned.
type faultStore struct {
	*store.Memory
	mu   sync.Mutex
	fail map[events.Type]bool
	done map[string][]events.Type
}

func newFaultStore(fail ...events.Type) *faultStore {
	f := &faultStore{Memory: store.NewMemory(), done: map[string][]events.Type{}}
	f.failOn(fail...)
	return f
}

// failOn replaces the set of record types whose append fails.
func (f *faultStore) failOn(types ...events.Type) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fail = map[events.Type]bool{}
	for _, typ := range types {
		f.fail[typ] = true
	}
}

func (f *faultStore) Append(rec store.Record) error {
	err := f.Memory.Append(rec)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail[rec.Type] {
		err = errInjected
	}
	f.done[rec.Job] = append(f.done[rec.Job], rec.Type)
	return err
}

// returned reports whether an append of typ for the job has returned.
func (f *faultStore) returned(job string, typ events.Type) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, got := range f.done[job] {
		if got == typ {
			return true
		}
	}
	return false
}

func TestStoreAppendFailureDegradesHealth(t *testing.T) {
	var logBuf syncBuffer
	reg := metrics.NewRegistry()
	fs := newFaultStore(events.TypeDone)
	s, ts := newTestServer(t, Options{Store: fs, Metrics: reg, Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
	var h api.Health
	if getInto(t, ts.URL+"/v1/healthz", &h); h.Status != "ok" {
		t.Fatalf("healthz before any failure: %q", h.Status)
	}

	// The done append fails: the job is still served done.
	j := submitSolve(t, ts.URL, api.SolveRequest{Heuristic: "greedy"})
	if got := waitState(t, ts.URL, j.ID, api.JobDone); got.State != api.JobDone || got.Result == nil {
		t.Fatalf("job after a failed done append: %+v", got)
	}
	if n := reg.Counter("server.store_errors").Value(); n != 1 {
		t.Errorf("server.store_errors = %d, want 1", n)
	}
	if getInto(t, ts.URL+"/v1/healthz", &h); h.Status != "degraded" || h.Draining {
		t.Errorf("healthz after a failed append: status %q draining %v, want degraded", h.Status, h.Draining)
	}
	var line map[string]any
	for _, l := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		if strings.Contains(l, "job store append failed") {
			if err := json.Unmarshal([]byte(l), &line); err != nil {
				t.Fatal(err)
			}
		}
	}
	if line["level"] != "ERROR" || line["job"] != j.ID || line["type"] != "done" || line["error"] != errInjected.Error() {
		t.Errorf("store failure log line %v, want level error with job, type and error", line)
	}

	// Draining takes precedence over degraded.
	s.Drain(0)
	if getInto(t, ts.URL+"/v1/healthz", &h); h.Status != "draining" {
		t.Errorf("healthz while draining and degraded: %q", h.Status)
	}
}

// TestAcceptedAppendFailureFailsJob pins the phantom-job fix: a job
// whose accepted append fails is answered 500 and listed as failed,
// never as queued, on both the queue and the cache admission paths.
func TestAcceptedAppendFailureFailsJob(t *testing.T) {
	reg := metrics.NewRegistry()
	fs := newFaultStore()
	_, ts := newTestServer(t, Options{Store: fs, Metrics: reg, Cache: cache.New(cache.Options{Metrics: reg})})
	req := api.SolveRequest{Heuristic: "greedy"}
	first := submitSolve(t, ts.URL, req)
	waitState(t, ts.URL, first.ID, api.JobDone)

	fs.failOn(events.TypeAccepted)
	// A different request takes the queue path; a repeat of the first
	// one is answered from the cache.
	for _, body := range []api.SolveRequest{{Heuristic: "twophase"}, req} {
		if resp := post(t, ts.URL+"/v1/solve", body, nil); resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("%s with a failing accepted append: status %d, want 500", body.Heuristic, resp.StatusCode)
		}
	}
	var l api.JobList
	getInto(t, ts.URL+"/v1/jobs", &l)
	if l.Total != 3 {
		t.Fatalf("listed %d jobs, want 3", l.Total)
	}
	for _, j := range l.Jobs[1:] {
		if j.State != api.JobFailed || !strings.Contains(j.Error, errInjected.Error()) {
			t.Errorf("job %s after a failed accepted append: state %s error %q, want failed with the store error",
				j.ID, j.State, j.Error)
		}
	}
	if n := reg.Counter("server.store_errors").Value(); n != 2 {
		t.Errorf("server.store_errors = %d, want 2", n)
	}
}

// unreadableStore is a memory store whose result for one job cannot
// be read back, as a WAL whose journal frame for it was damaged after
// the fact.
type unreadableStore struct {
	*store.Memory
	bad string
}

func (u unreadableStore) Get(id string) (store.Job, bool, error) {
	j, ok, _ := u.Memory.Get(id)
	if !ok {
		return j, false, nil
	}
	return j, true, u.Resolve(&j)
}

func (u unreadableStore) Resolve(j *store.Job) error {
	if j.Env.ID == u.bad && j.Env.State == api.JobDone {
		j.Env.Result = nil
		return errInjected
	}
	return nil
}

// A result the store cannot read back is answered 500, on the job and
// on a listing page that holds it, never as a done envelope without its
// result; pages without it are served, since a listing reads back only
// the results it returns.
func TestUnreadableResultAnswers500(t *testing.T) {
	us := unreadableStore{Memory: store.NewMemory(), bad: "job-000001"}
	_, ts := newTestServer(t, Options{Store: us})
	for range 2 {
		j := submitSolve(t, ts.URL, api.SolveRequest{Heuristic: "greedy"})
		deadline := time.Now().Add(30 * time.Second)
		for {
			if rec, _, _ := us.Memory.Get(j.ID); rec.Env.State == api.JobDone {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("job never finished")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for _, c := range []struct {
		path   string
		status int
	}{
		{"/v1/jobs/job-000001", http.StatusInternalServerError},
		{"/v1/jobs", http.StatusInternalServerError},
		{"/v1/jobs?limit=1", http.StatusInternalServerError},
		{"/v1/jobs?after=job-000001", http.StatusOK},
		{"/v1/jobs/job-000002", http.StatusOK},
	} {
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != c.status {
			t.Errorf("GET %s = %d %s (%v), want %d", c.path, resp.StatusCode, body, err, c.status)
			continue
		}
		if c.status == http.StatusOK {
			continue
		}
		var doc api.Error
		if err := json.Unmarshal(body, &doc); err != nil || doc.Code != api.ErrInternal {
			t.Errorf("GET %s = %s (%v), want code %s", c.path, body, err, api.ErrInternal)
		}
	}
}
