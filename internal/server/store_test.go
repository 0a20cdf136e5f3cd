package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cdsf/internal/api"
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
	req := api.SolveRequest{Heuristic: "genetic", Seed: 7}
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
	if reg.Counter("server.jobs_recovered").Value() != 1 {
		t.Errorf("jobs_recovered = %d, want 1", reg.Counter("server.jobs_recovered").Value())
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
