package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"cdsf/internal/api"
	"cdsf/internal/cache"
	"cdsf/internal/config"
	"cdsf/internal/core"
	"cdsf/internal/dls"
	"cdsf/internal/experiments"
	"cdsf/internal/metrics"
	"cdsf/internal/ra"
	"cdsf/internal/robustness"
	"cdsf/internal/tracing"
)

// newTestServer starts a server and an httptest front end, both torn
// down (with immediate job cancellation) when the test ends.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post submits a request body and decodes the response into out (when
// non-nil), returning the raw response for header/status checks.
func post(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

// getJob polls one job.
func getJob(t *testing.T, base, id string) api.Job {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var j api.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

// waitState polls until the job reaches want (terminal states also stop
// the wait so a failed job reports its error instead of timing out).
func waitState(t *testing.T, base, id string, want api.JobState) api.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j := getJob(t, base, id)
		if j.State == want {
			return j
		}
		if j.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, j.State, j.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return api.Job{}
}

// loadPaperInstance parses the checked-in paper instance document.
func loadPaperInstance(t *testing.T) *config.Instance {
	t.Helper()
	f, err := os.Open("../../examples/instances/paper.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inst, err := config.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// longSimulate returns a request that keeps an executor busy until
// cancelled: millions of repetitions of the cheapest technique.
func longSimulate() api.SimulateRequest {
	return api.SimulateRequest{
		Allocation: []api.Assignment{{Type: 0, Procs: 4}, {Type: 1, Procs: 4}, {Type: 1, Procs: 4}},
		Techniques: []string{"STATIC"},
		Reps:       2_000_000,
	}
}

func TestSolveJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var j api.Job
	resp := post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "greedy"}, &j)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if want := "/v1/jobs/" + j.ID; resp.Header.Get("Location") != want {
		t.Errorf("Location %q, want %q", resp.Header.Get("Location"), want)
	}
	if j.Kind != api.KindSolve || j.State.Terminal() {
		t.Fatalf("fresh job: %+v", j)
	}
	done := waitState(t, ts.URL, j.ID, api.JobDone)
	if done.Started == nil || done.Finished == nil {
		t.Error("done job missing timestamps")
	}
	var res api.SolveResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Heuristic == "" || len(res.Allocation) != 3 || res.Phi1 <= 0 || res.Phi1 > 1 {
		t.Errorf("suspicious solve result: %+v", res)
	}
	if res.Instance != nil {
		t.Error("paper-default job echoed an instance")
	}
}

// TestSolveBitIdentical is the acceptance check: a seeded POST /v1/solve
// must produce exactly the result of the equivalent direct library
// call, allocation and floats alike.
func TestSolveBitIdentical(t *testing.T) {
	inst := loadPaperInstance(t)
	_, ts := newTestServer(t, Options{})
	var j api.Job
	resp := post(t, ts.URL+"/v1/solve", api.SolveRequest{
		Instance: inst, Heuristic: "tabu", Seed: 7, Workers: 3,
	}, &j)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	done := waitState(t, ts.URL, j.ID, api.JobDone)
	var got api.SolveResult
	if err := json.Unmarshal(done.Result, &got); err != nil {
		t.Fatal(err)
	}

	sys, batch, deadline, err := config.Build(inst)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ra.ByName("tabu")
	if err != nil {
		t.Fatal(err)
	}
	ra.SetSeed(h, 7)
	ra.SetWorkers(h, 3)
	al, err := ra.SolveContext(context.Background(), h, &ra.Problem{Sys: sys, Batch: batch, Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	if !al.Equal(api.ToAllocation(got.Allocation)) {
		t.Errorf("service allocation %v != direct %v", got.Allocation, api.FromAllocation(al))
	}
	st, err := robustness.EvaluateStageI(sys, batch, al, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if got.Phi1 != st.Phi1 {
		t.Errorf("service phi1 %v != direct %v", got.Phi1, st.Phi1)
	}
	for i := range st.PerApp {
		if got.PerApp[i] != st.PerApp[i] || got.ExpectedTimes[i] != st.ExpectedTimes[i] {
			t.Errorf("app %d: service (%v, %v) != direct (%v, %v)",
				i, got.PerApp[i], got.ExpectedTimes[i], st.PerApp[i], st.ExpectedTimes[i])
		}
	}
	if got.Instance == nil {
		t.Error("submitted instance was not echoed")
	}
}

// TestSolveGridBackend submits a solve under the grid backend: the
// job must complete and, at the paper's scale, agree with the sparse
// exhaustive optimum's allocation.
func TestSolveGridBackend(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var j api.Job
	resp := post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "exhaustive", PMFBackend: "grid"}, &j)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	done := waitState(t, ts.URL, j.ID, api.JobDone)
	var grid api.SolveResult
	if err := json.Unmarshal(done.Result, &grid); err != nil {
		t.Fatal(err)
	}
	resp = post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "exhaustive"}, &j)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	done = waitState(t, ts.URL, j.ID, api.JobDone)
	var sparse api.SolveResult
	if err := json.Unmarshal(done.Result, &sparse); err != nil {
		t.Fatal(err)
	}
	if !api.ToAllocation(grid.Allocation).Equal(api.ToAllocation(sparse.Allocation)) {
		t.Errorf("grid allocation %v != sparse %v", grid.Allocation, sparse.Allocation)
	}
	if diff := grid.Phi1 - sparse.Phi1; diff > 0.01 || diff < -0.01 {
		t.Errorf("grid phi1 %v vs sparse %v beyond the quantization bound", grid.Phi1, sparse.Phi1)
	}
}

func TestSimulateJobMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := api.SimulateRequest{
		Allocation: []api.Assignment{{Type: 0, Procs: 4}, {Type: 1, Procs: 4}, {Type: 1, Procs: 4}},
		Techniques: []string{"STATIC"},
		Case:       "Case 2",
		Reps:       3,
		Seed:       42,
	}
	var j api.Job
	if resp := post(t, ts.URL+"/v1/simulate", req, &j); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	done := waitState(t, ts.URL, j.ID, api.JobDone)
	var got api.SimulateResult
	if err := json.Unmarshal(done.Result, &got); err != nil {
		t.Fatal(err)
	}

	f := experiments.Framework()
	cfg := core.DefaultStageII(f.Deadline, 42)
	cfg.Reps = 3
	var c core.Case
	for _, cc := range experiments.Cases() {
		if cc.Name == "Case 2" {
			c = cc
		}
	}
	cr, err := f.RunCaseContext(context.Background(), api.ToAllocation(req.Allocation),
		core.NaiveRAS(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := api.FromCaseResult(cr)
	gotJSON, _ := json.Marshal(got.CaseResult)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("service simulate differs from direct call:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	// The job's final progress board accounts for every replication:
	// 3 apps x 1 technique x 3 reps.
	if done.Progress == nil {
		t.Fatal("simulate job reported no progress")
	}
	if done.Progress.Replications.Planned != 9 || done.Progress.Replications.Done != 9 {
		t.Errorf("replications %+v, want 9/9", done.Progress.Replications)
	}
}

// TestSimulateIterCVBound pins the admission bound on a simulate
// request's iteration CV: outside (0, 10] it answers 400 with field
// "iterCV" before any job exists, and 10 itself runs.
func TestSimulateIterCVBound(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := func(cv float64) api.SimulateRequest {
		return api.SimulateRequest{
			Allocation: []api.Assignment{{Type: 0, Procs: 4}, {Type: 1, Procs: 4}, {Type: 1, Procs: 4}},
			Techniques: []string{"FAC"},
			Reps:       2,
			IterCV:     &cv,
		}
	}
	for _, cv := range []float64{1e7, 0, -1} {
		var apiErr api.Error
		resp := post(t, ts.URL+"/v1/simulate", req(cv), &apiErr)
		if resp.StatusCode != http.StatusBadRequest || apiErr.Code != api.ErrBadRequest || apiErr.Field != "iterCV" {
			t.Errorf("iterCV %v: status %d, error %+v, want 400 bad_request on field iterCV", cv, resp.StatusCode, apiErr)
		}
	}
	var j api.Job
	if resp := post(t, ts.URL+"/v1/simulate", req(maxIterCV), &j); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("iterCV %v: status %d, want 202", float64(maxIterCV), resp.StatusCode)
	}
	waitState(t, ts.URL, j.ID, api.JobDone)
	var list api.JobList
	getInto(t, ts.URL+"/v1/jobs", &list)
	if list.Total != 1 {
		t.Errorf("%d jobs exist, want only the admitted one", list.Total)
	}
}

func TestScenarioJobMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := api.ScenarioRequest{Scenario: 1, Reps: 2, Seed: 11}
	var j api.Job
	if resp := post(t, ts.URL+"/v1/scenario", req, &j); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	done := waitState(t, ts.URL, j.ID, api.JobDone)
	var got api.ScenarioResult
	if err := json.Unmarshal(done.Result, &got); err != nil {
		t.Fatal(err)
	}

	f := experiments.Framework()
	sc, err := core.BuildScenario(1, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultStageII(f.Deadline, 11)
	cfg.Reps = 2
	res, err := f.RunScenarioContext(context.Background(), sc, experiments.Cases(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := api.FromScenarioResult(res)
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("service scenario differs from direct call:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	if len(got.Cases) != 4 {
		t.Errorf("evaluated %d cases, want 4", len(got.Cases))
	}
}

// TestConcurrentPaperScenariosMatchSequential runs paper-instance
// scenario jobs, which all share one embedded paper problem, on four
// executors at once and checks each result document against the same
// request run alone on a one-executor server. One request adds edges,
// which must not leak into the shared problem.
func TestConcurrentPaperScenariosMatchSequential(t *testing.T) {
	reqs := []api.ScenarioRequest{
		{Scenario: 4, Reps: 2, Seed: 1},
		{Scenario: 3, Reps: 2, Seed: 2},
		{Scenario: 4, Reps: 2, Seed: 3, Edges: []config.EdgeSpec{{From: 0, To: 2}}},
		{Scenario: 2, Reps: 2, Seed: 4},
		{Scenario: 4, Reps: 2, Seed: 1},
		{Scenario: 1, Reps: 2, Seed: 5},
	}
	submit := func(base string, req api.ScenarioRequest) string {
		var j api.Job
		if resp := post(t, base+"/v1/scenario", req, &j); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status %d, want 202", resp.StatusCode)
		}
		return j.ID
	}
	_, seq := newTestServer(t, Options{Executors: 1})
	want := make([]json.RawMessage, len(reqs))
	for i, req := range reqs {
		want[i] = waitState(t, seq.URL, submit(seq.URL, req), api.JobDone).Result
	}
	_, par := newTestServer(t, Options{Executors: 4})
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		ids[i] = submit(par.URL, req)
	}
	for i, id := range ids {
		if got := waitState(t, par.URL, id, api.JobDone).Result; !bytes.Equal(got, want[i]) {
			t.Errorf("request %d: concurrent result\n%s\ndiffers from the sequential one\n%s", i, got, want[i])
		}
	}
}

func TestBackpressure429(t *testing.T) {
	_, ts := newTestServer(t, Options{Queue: 1, Executors: 1})

	// First job occupies the single executor...
	var running api.Job
	post(t, ts.URL+"/v1/simulate", longSimulate(), &running)
	waitState(t, ts.URL, running.ID, api.JobRunning)
	// ...second fills the single queue slot...
	var queued api.Job
	if resp := post(t, ts.URL+"/v1/simulate", longSimulate(), &queued); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit status %d, want 202", resp.StatusCode)
	}
	// ...third must bounce with 429 + Retry-After.
	var apiErr api.Error
	resp := post(t, ts.URL+"/v1/simulate", longSimulate(), &apiErr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if apiErr.Message == "" {
		t.Error("429 without error body")
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Queue: 4, Executors: 1})
	var j api.Job
	post(t, ts.URL+"/v1/simulate", longSimulate(), &j)
	waitState(t, ts.URL, j.ID, api.JobRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running job status %d, want 202", resp.StatusCode)
	}
	final := waitState(t, ts.URL, j.ID, api.JobCancelled)
	if final.Error == "" {
		t.Error("cancelled job has no error message")
	}
	if final.Result != nil {
		t.Error("cancelled job has a result")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Queue: 4, Executors: 1})
	var running, queued api.Job
	post(t, ts.URL+"/v1/simulate", longSimulate(), &running)
	waitState(t, ts.URL, running.ID, api.JobRunning)
	post(t, ts.URL+"/v1/simulate", longSimulate(), &queued)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var final api.Job
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE queued job status %d, want 200", resp.StatusCode)
	}
	if final.State != api.JobCancelled {
		t.Fatalf("queued job state %s after DELETE, want cancelled", final.State)
	}
	// Idempotent: cancelling a terminal job answers 200 and changes
	// nothing.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("second DELETE status %d, want 200", resp2.StatusCode)
	}
}

// TestTerminalJobsLeaveRuntimeMap pins the bound on the runtime job
// map: a finished or cancelled job's entry (and with it the run closure
// holding its parsed problem) is dropped, while its envelope, final
// progress included, is still served from the store.
func TestTerminalJobsLeaveRuntimeMap(t *testing.T) {
	s, ts := newTestServer(t, Options{Queue: 4, Executors: 1})
	runtimeJobs := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.jobs)
	}

	req := api.SimulateRequest{
		Allocation: []api.Assignment{{Type: 0, Procs: 4}, {Type: 1, Procs: 4}, {Type: 1, Procs: 4}},
		Techniques: []string{"STATIC"},
		Reps:       3,
		Seed:       42,
	}
	var j api.Job
	post(t, ts.URL+"/v1/simulate", req, &j)
	done := waitState(t, ts.URL, j.ID, api.JobDone)
	if done.Progress == nil || done.Progress.Replications.Done != 9 {
		t.Errorf("finished job progress %+v, want 9 replications done", done.Progress)
	}
	if n := runtimeJobs(); n != 0 {
		t.Errorf("%d runtime entries after the job finished, want 0", n)
	}
	if p := s.progressSnapshot(); p != (tracing.ProgressSnapshot{}) {
		t.Errorf("/progress still counts a finished job: %+v", p)
	}

	var running, queued api.Job
	post(t, ts.URL+"/v1/simulate", longSimulate(), &running)
	waitState(t, ts.URL, running.ID, api.JobRunning)
	post(t, ts.URL+"/v1/simulate", longSimulate(), &queued)
	if n := runtimeJobs(); n != 2 {
		t.Fatalf("%d runtime entries with one job running and one queued, want 2", n)
	}
	del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if n := runtimeJobs(); n != 1 {
		t.Errorf("%d runtime entries after cancelling the queued job, want 1", n)
	}
}

func TestListJobsAndFilters(t *testing.T) {
	_, ts := newTestServer(t, Options{Queue: 4, Executors: 1})
	var a, b api.Job
	post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "greedy"}, &a)
	waitState(t, ts.URL, a.ID, api.JobDone)
	post(t, ts.URL+"/v1/simulate", longSimulate(), &b)
	waitState(t, ts.URL, b.ID, api.JobRunning)

	var all api.JobList
	resp := getInto(t, ts.URL+"/v1/jobs", &all)
	if resp.StatusCode != http.StatusOK || len(all.Jobs) != 2 {
		t.Fatalf("list: status %d, %d jobs", resp.StatusCode, len(all.Jobs))
	}
	if all.Jobs[0].ID != a.ID || all.Jobs[1].ID != b.ID {
		t.Error("list not in submission order")
	}

	var runningOnly api.JobList
	getInto(t, ts.URL+"/v1/jobs?state=running", &runningOnly)
	if len(runningOnly.Jobs) != 1 || runningOnly.Jobs[0].ID != b.ID {
		t.Errorf("state=running filter returned %+v", runningOnly.Jobs)
	}
	var both api.JobList
	getInto(t, ts.URL+"/v1/jobs?state=done,running", &both)
	if len(both.Jobs) != 2 {
		t.Errorf("state=done,running filter returned %d jobs", len(both.Jobs))
	}
	resp, err := http.Get(ts.URL + "/v1/jobs?state=bogus")
	if err != nil {
		t.Fatal(err)
	}
	var apiErr api.Error
	_ = json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus state filter status %d, want 400", resp.StatusCode)
	}
	if apiErr.Message == "" {
		t.Error("bogus state filter returned no error body")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	checkStatus := func(path string, body string, want int, field string) api.Error {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr api.Error
		_ = json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("POST %s %q: status %d, want %d", path, body, resp.StatusCode, want)
		}
		if apiErr.Message == "" {
			t.Errorf("POST %s %q: no error body", path, body)
		}
		if apiErr.Field != field {
			t.Errorf("POST %s %q: field %q, want %q", path, body, apiErr.Field, field)
		}
		return apiErr
	}
	alloc := `"allocation": [{"type": 0, "procs": 2}, {"type": 1, "procs": 4}, {"type": 1, "procs": 4}]`
	checkStatus("/v1/solve", "{not json", http.StatusBadRequest, "")
	checkStatus("/v1/solve", `{"bogusField": 1}`, http.StatusBadRequest, "")
	checkStatus("/v1/solve", `{"heuristic": "nope"}`, http.StatusBadRequest, "heuristic")
	checkStatus("/v1/simulate", `{}`, http.StatusBadRequest, "") // allocation required
	checkStatus("/v1/simulate", `{"allocation": [{"type": 0, "procs": 100}, {"type": 0, "procs": 1}, {"type": 0, "procs": 1}]}`, http.StatusBadRequest, "")
	checkStatus("/v1/simulate", `{`+alloc+`, "techniques": ["AF", "NOPE"]}`, http.StatusBadRequest, "techniques[1]")
	checkStatus("/v1/simulate", `{`+alloc+`, "case": "nope"}`, http.StatusBadRequest, "case")
	checkStatus("/v1/simulate", `{`+alloc+`, "pmf_backend": "nope"}`, http.StatusBadRequest, "pmf_backend")
	checkStatus("/v1/scenario", `{"scenario": 9}`, http.StatusBadRequest, "scenario")
	checkStatus("/v1/scenario", `{"im": "nope"}`, http.StatusBadRequest, "im")
	checkStatus("/v1/scenario", `{"ras": ["NOPE"]}`, http.StatusBadRequest, "ras[0]")
	checkStatus("/v1/solve", `{"pmf_backend": "nope"}`, http.StatusBadRequest, "pmf_backend")
	checkStatus("/v1/scenario", `{"pmf_backend": "nope"}`, http.StatusBadRequest, "pmf_backend")
	// The heuristics the EXPERIMENTS.md tournaments dropped answer like
	// any unknown name, with the registry list, on solve and as a
	// scenario's IM.
	for _, gone := range []string{"random", "maxmin", "duplex", "minimal", "portfolio", "anneal", "genetic"} {
		e := checkStatus("/v1/solve", `{"heuristic": "`+gone+`"}`, http.StatusBadRequest, "heuristic")
		if e.Code != api.ErrBadRequest || !strings.Contains(e.Message, strings.Join(ra.Names(), ", ")) {
			t.Errorf("solve %s: error %+v, want bad_request listing the registry", gone, e)
		}
		checkStatus("/v1/scenario", `{"im": "`+gone+`"}`, http.StatusBadRequest, "im")
	}
	// So do the DLS techniques the DLS tournament dropped, as a
	// scenario's RAS and as a simulation's techniques.
	for _, gone := range []string{"GSS", "TFSS", "FISS", "VISS"} {
		for _, c := range []struct{ path, body, field string }{
			{"/v1/scenario", `{"ras": ["` + gone + `"]}`, "ras[0]"},
			{"/v1/simulate", `{` + alloc + `, "techniques": ["` + gone + `"]}`, "techniques[0]"},
		} {
			e := checkStatus(c.path, c.body, http.StatusBadRequest, c.field)
			if e.Code != api.ErrBadRequest || !strings.Contains(e.Message, strings.Join(dls.Names(), ", ")) {
				t.Errorf("%s %s: error %+v, want bad_request listing the registry", c.path, gone, e)
			}
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve status %d, want 405", resp.StatusCode)
	}
}

func TestDrainRejectsAndCancels(t *testing.T) {
	s := New(Options{Queue: 4, Executors: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var running, queued api.Job
	post(t, ts.URL+"/v1/simulate", longSimulate(), &running)
	waitState(t, ts.URL, running.ID, api.JobRunning)
	post(t, ts.URL+"/v1/simulate", longSimulate(), &queued)

	start := time.Now()
	s.Drain(50 * time.Millisecond)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("drain took %v", elapsed)
	}
	if !s.Draining() {
		t.Error("server not draining after Drain")
	}

	// Everything reached a terminal state: the queued job cancelled
	// without running, the running job cancelled via its context.
	if st := getJob(t, ts.URL, queued.ID).State; st != api.JobCancelled {
		t.Errorf("queued job state %s after drain, want cancelled", st)
	}
	if st := getJob(t, ts.URL, running.ID).State; st != api.JobCancelled {
		t.Errorf("running job state %s after drain, want cancelled", st)
	}

	// New submissions bounce with 503.
	resp := post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "greedy"}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining status %d, want 503", resp.StatusCode)
	}

	// Drain is idempotent.
	s.Drain(0)
}

func TestDrainWaitsForShortJobs(t *testing.T) {
	s := New(Options{Queue: 4, Executors: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	// A few hundred repetitions: long enough to still be running when
	// Drain starts, short enough to finish well within the timeout.
	req := longSimulate()
	req.Reps = 500
	var j api.Job
	post(t, ts.URL+"/v1/simulate", req, &j)
	waitState(t, ts.URL, j.ID, api.JobRunning)
	s.Drain(2 * time.Minute)
	if st := getJob(t, ts.URL, j.ID).State; st != api.JobDone {
		t.Errorf("short job state %s after generous drain, want done", st)
	}
}

func TestDebugEndpointsMounted(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := tracing.New()
	s, ts := newTestServer(t, Options{Metrics: reg, Tracer: tr})

	var j api.Job
	post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "greedy"}, &j)
	waitState(t, ts.URL, j.ID, api.JobDone)

	for _, path := range []string{"/metrics", "/metrics?format=prom", "/progress", "/trace", "/debug/pprof/cmdline"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	snap := reg.Snapshot()
	if snap.Counters["server.jobs_submitted"] != 1 || snap.Counters["server.jobs_done"] != 1 {
		t.Errorf("job counters missing from registry: %+v", snap.Counters)
	}
	_ = s
}

// Every job's engine counters reach the server's own registry through
// the job's scope, with no process-wide state: a scenario job's
// replications and Stage-I work, then a solve job's Stage-I table
// build and evaluations, show up at /metrics.
func TestEngineCountersReachServerRegistry(t *testing.T) {
	_, ts := newTestServer(t, Options{Metrics: metrics.NewRegistry()})
	counters := func() map[string]int64 {
		var snap struct {
			Counters map[string]int64 `json:"counters"`
		}
		getInto(t, ts.URL+"/metrics", &snap)
		return snap.Counters
	}

	var sc api.Job
	post(t, ts.URL+"/v1/scenario", api.ScenarioRequest{Scenario: 1, Reps: 2, Seed: 11}, &sc)
	done := waitState(t, ts.URL, sc.ID, api.JobDone)
	if done.Progress == nil || done.Progress.Replications.Planned == 0 {
		t.Fatalf("scenario job planned no replications: %+v", done.Progress)
	}
	after := counters()
	if got, want := after["sim.replications"], done.Progress.Replications.Planned; got != want {
		t.Errorf("sim.replications = %d, want the job's %d planned", got, want)
	}
	for _, name := range []string{"ra.precompute_cells", "ra.evaluations"} {
		if after[name] == 0 {
			t.Errorf("%s = 0 after a scenario job", name)
		}
	}

	var solve api.Job
	post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "greedy"}, &solve)
	waitState(t, ts.URL, solve.ID, api.JobDone)
	final := counters()
	for _, name := range []string{"ra.precompute_cells", "ra.evaluations"} {
		if final[name] <= after[name] {
			t.Errorf("%s = %d, not above the %d before the solve job", name, final[name], after[name])
		}
	}
	if final["sim.replications"] != after["sim.replications"] {
		t.Errorf("solve job changed sim.replications: %d -> %d", after["sim.replications"], final["sim.replications"])
	}
}

func TestHealthz(t *testing.T) {
	reg := metrics.NewRegistry()
	s, ts := newTestServer(t, Options{Queue: 4, Executors: 2, Metrics: reg, Cache: cache.New(cache.Options{Metrics: reg})})
	var h api.Health
	resp := getInto(t, ts.URL+"/v1/healthz", &h)
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Version != api.Version || h.Draining {
		t.Fatalf("healthz: status %d body %+v", resp.StatusCode, h)
	}
	if h.QueueCapacity != 4 || h.Executors != 2 {
		t.Errorf("healthz capacity/executors = %d/%d, want 4/2", h.QueueCapacity, h.Executors)
	}
	if h.Cache == nil {
		t.Fatal("healthz: no cache block despite a configured cache")
	}
	if h.Store == nil || h.Store.Backend != "memory" {
		t.Errorf("healthz store: %+v", h.Store)
	}

	// Run the same solve twice: the second replays from cache, and the
	// job and cache tallies show up in the health document.
	var a, b api.Job
	post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "greedy"}, &a)
	waitState(t, ts.URL, a.ID, api.JobDone)
	post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "greedy"}, &b)
	waitState(t, ts.URL, b.ID, api.JobDone)
	getInto(t, ts.URL+"/v1/healthz", &h)
	if h.Jobs.Submitted != 2 || h.Jobs.Done != 2 {
		t.Errorf("healthz jobs = %+v, want 2 submitted / 2 done", h.Jobs)
	}
	if h.Cache.ResultHits != 1 || h.Cache.ResultMisses != 1 {
		t.Errorf("healthz cache = %+v, want 1 hit / 1 miss", *h.Cache)
	}

	// Draining flips the status.
	s.Drain(0)
	getInto(t, ts.URL+"/v1/healthz", &h)
	if h.Status != "draining" || !h.Draining {
		t.Errorf("healthz while draining: %+v", h)
	}
}

// getInto GETs a URL and decodes the body into out when non-nil.
func getInto(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}
