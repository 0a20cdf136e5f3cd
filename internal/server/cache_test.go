package server

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"cdsf/internal/api"
	"cdsf/internal/cache"
	"cdsf/internal/config"
	"cdsf/internal/metrics"
)

// overflow submits one more long job than the server can hold and
// returns the 429 response.
func overflow(t *testing.T, base string) *http.Response {
	t.Helper()
	var apiErr api.Error
	resp := post(t, base+"/v1/simulate", longSimulate(), &apiErr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	return resp
}

// fillServer occupies the single executor and every queue slot with
// long-running jobs.
func fillServer(t *testing.T, s *Server, ts string, queueSlots int) {
	t.Helper()
	var running api.Job
	post(t, ts+"/v1/simulate", longSimulate(), &running)
	waitState(t, ts, running.ID, api.JobRunning)
	for i := 0; i < queueSlots; i++ {
		var queued api.Job
		if resp := post(t, ts+"/v1/simulate", longSimulate(), &queued); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("queue fill %d: status %d", i, resp.StatusCode)
		}
	}
}

// TestRetryAfterScalesWithBacklog is the regression test for the
// hardcoded Retry-After: the estimate is queue depth times the rolling
// mean of recent job wall times (floor 1s), so a deeper backlog pushes
// clients back further.
func TestRetryAfterScalesWithBacklog(t *testing.T) {
	// No wall-time history: the floor answers 1, the old behaviour.
	s1, ts1 := newTestServer(t, Options{Queue: 1, Executors: 1})
	fillServer(t, s1, ts1.URL, 1)
	if got := overflow(t, ts1.URL).Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After with no history = %q, want %q", got, "1")
	}

	// A 2s mean over a depth-1 backlog: ceil(1 x 2s) = 2.
	s2, ts2 := newTestServer(t, Options{Queue: 1, Executors: 1})
	for i := 0; i < 3; i++ {
		s2.recordWall(2 * time.Second)
	}
	fillServer(t, s2, ts2.URL, 1)
	shallow := overflow(t, ts2.URL).Header.Get("Retry-After")
	if shallow != "2" {
		t.Errorf("Retry-After at depth 1 = %q, want %q", shallow, "2")
	}

	// The same mean over a depth-3 backlog: ceil(3 x 2s) = 6 > 2.
	s3, ts3 := newTestServer(t, Options{Queue: 3, Executors: 1})
	for i := 0; i < 3; i++ {
		s3.recordWall(2 * time.Second)
	}
	fillServer(t, s3, ts3.URL, 3)
	deep := overflow(t, ts3.URL).Header.Get("Retry-After")
	if deep != "6" {
		t.Errorf("Retry-After at depth 3 = %q, want %q", deep, "6")
	}
}

func TestRetryAfterRollingMean(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	if got := s.meanWall(); got != 0 {
		t.Errorf("empty mean = %v", got)
	}
	s.recordWall(1 * time.Second)
	s.recordWall(3 * time.Second)
	if got := s.meanWall(); got != 2*time.Second {
		t.Errorf("mean = %v, want 2s", got)
	}
	// Negative durations (clock weirdness) are ignored.
	s.recordWall(-time.Second)
	if got := s.meanWall(); got != 2*time.Second {
		t.Errorf("mean after negative sample = %v, want 2s", got)
	}
	// The window is rolling: flood with 5s samples and the old 1s/3s
	// fall out.
	for i := 0; i < wallWindow; i++ {
		s.recordWall(5 * time.Second)
	}
	if got := s.meanWall(); got != 5*time.Second {
		t.Errorf("mean after window rollover = %v, want 5s", got)
	}
}

// TestCachedSolveRepeatBitIdentical is the result-tier acceptance
// test: an identical repeat request is answered terminally at
// admission with the exact bytes of the first run.
func TestCachedSolveRepeatBitIdentical(t *testing.T) {
	reg := metrics.NewRegistry()
	c := cache.New(cache.Options{Metrics: reg})
	_, ts := newTestServer(t, Options{Cache: c, Metrics: reg})

	req := api.SolveRequest{Heuristic: "tabu", Seed: 11}
	var first api.Job
	if resp := post(t, ts.URL+"/v1/solve", req, &first); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if first.Cache != nil && first.Cache.ResultHit {
		t.Fatal("first submission claimed a result hit")
	}
	done := waitState(t, ts.URL, first.ID, api.JobDone)
	if done.Cache == nil || done.Cache.Key == "" || done.Cache.ResultHit {
		t.Fatalf("finished job cache block = %+v", done.Cache)
	}
	if done.Cache.WarmMisses == 0 {
		t.Errorf("cold solve reported no warm misses: %+v", done.Cache)
	}

	var repeat api.Job
	resp := post(t, ts.URL+"/v1/solve", req, &repeat)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("repeat status %d", resp.StatusCode)
	}
	if repeat.State != api.JobDone {
		t.Fatalf("repeat state %s, want done at admission", repeat.State)
	}
	if repeat.Cache == nil || !repeat.Cache.ResultHit || repeat.Cache.Key != done.Cache.Key {
		t.Fatalf("repeat cache block = %+v, want result hit under key %s", repeat.Cache, done.Cache.Key)
	}
	if !bytes.Equal(repeat.Result, done.Result) {
		t.Errorf("cached result bytes differ:\nfirst  %s\nrepeat %s", done.Result, repeat.Result)
	}
	if got := reg.Counter("server.jobs_cached").Value(); got != 1 {
		t.Errorf("server.jobs_cached = %d, want 1", got)
	}
	if got := reg.Counter("cache.result_hits").Value(); got != 1 {
		t.Errorf("cache.result_hits = %d, want 1", got)
	}

	// A different seed is a different key: it must run, not replay.
	var other api.Job
	post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "tabu", Seed: 12}, &other)
	if other.State == api.JobDone {
		t.Error("different seed was served from cache")
	}
	waitState(t, ts.URL, other.ID, api.JobDone)
}

// TestCachedRepeatImmuneToBackpressure pins the admission-time
// short-circuit: a cached repeat never touches the queue, so it
// succeeds even when submissions would otherwise bounce with 429.
func TestCachedRepeatImmuneToBackpressure(t *testing.T) {
	c := cache.New(cache.Options{})
	s, ts := newTestServer(t, Options{Queue: 1, Executors: 1, Cache: c})

	req := api.SolveRequest{Heuristic: "greedy", Seed: 3}
	var first api.Job
	post(t, ts.URL+"/v1/solve", req, &first)
	waitState(t, ts.URL, first.ID, api.JobDone)

	fillServer(t, s, ts.URL, 1)
	overflow(t, ts.URL) // the queue really is full

	var repeat api.Job
	resp := post(t, ts.URL+"/v1/solve", req, &repeat)
	if resp.StatusCode != http.StatusAccepted || repeat.State != api.JobDone {
		t.Fatalf("cached repeat under backpressure: status %d, state %s", resp.StatusCode, repeat.State)
	}
	if repeat.Cache == nil || !repeat.Cache.ResultHit {
		t.Errorf("repeat cache block = %+v", repeat.Cache)
	}
}

// TestCachedRepeatRejectedWhileDraining: the cache must not punch a
// hole through the drain barrier.
func TestCachedRepeatRejectedWhileDraining(t *testing.T) {
	c := cache.New(cache.Options{})
	_, ts := newTestServer(t, Options{Cache: c})
	req := api.SolveRequest{Heuristic: "greedy", Seed: 4}
	var first api.Job
	post(t, ts.URL+"/v1/solve", req, &first)
	waitState(t, ts.URL, first.ID, api.JobDone)

	s2, ts2 := newTestServer(t, Options{Cache: c})
	s2.Drain(0)
	var apiErr api.Error
	if resp := post(t, ts2.URL+"/v1/solve", req, &apiErr); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining cached repeat status %d, want 503", resp.StatusCode)
	}
}

// TestWarmHitsAcrossDeadlines pins the delta-solve path at the server
// layer: a solve differing only in deadline is a result-tier miss but
// re-derives its evaluation table from the warm tier.
func TestWarmHitsAcrossDeadlines(t *testing.T) {
	c := cache.New(cache.Options{})
	_, ts := newTestServer(t, Options{Cache: c})

	var first api.Job
	post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "greedy"}, &first)
	done := waitState(t, ts.URL, first.ID, api.JobDone)
	if done.Cache == nil || done.Cache.WarmHits != 0 || done.Cache.WarmMisses == 0 {
		t.Fatalf("cold cache block = %+v", done.Cache)
	}

	var delta api.Job
	post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "greedy", Deadline: 4000}, &delta)
	if delta.State == api.JobDone {
		t.Fatal("different deadline was served from the result tier")
	}
	deltaDone := waitState(t, ts.URL, delta.ID, api.JobDone)
	if deltaDone.Cache == nil || deltaDone.Cache.WarmHits == 0 || deltaDone.Cache.WarmMisses != 0 {
		t.Fatalf("delta cache block = %+v, want pure warm hits", deltaDone.Cache)
	}
}

// TestCachedSimulateAndScenarioRepeat covers the other two endpoints'
// key construction: identical repeats replay bit-identically, and a
// request differing in one knob (reps) misses.
func TestCachedSimulateAndScenarioRepeat(t *testing.T) {
	c := cache.New(cache.Options{})
	_, ts := newTestServer(t, Options{Cache: c})

	sim := api.SimulateRequest{
		Allocation: []api.Assignment{{Type: 0, Procs: 4}, {Type: 1, Procs: 4}, {Type: 1, Procs: 4}},
		Techniques: []string{"STATIC"},
		Reps:       5,
		Seed:       9,
	}
	var first api.Job
	post(t, ts.URL+"/v1/simulate", sim, &first)
	done := waitState(t, ts.URL, first.ID, api.JobDone)

	var repeat api.Job
	post(t, ts.URL+"/v1/simulate", sim, &repeat)
	if repeat.State != api.JobDone || repeat.Cache == nil || !repeat.Cache.ResultHit {
		t.Fatalf("simulate repeat: state %s, cache %+v", repeat.State, repeat.Cache)
	}
	if !bytes.Equal(repeat.Result, done.Result) {
		t.Error("simulate repeat bytes differ")
	}
	sim.Reps = 6
	var other api.Job
	post(t, ts.URL+"/v1/simulate", sim, &other)
	if other.State == api.JobDone {
		t.Error("different reps was served from cache")
	}
	waitState(t, ts.URL, other.ID, api.JobDone)

	scen := api.ScenarioRequest{Scenario: 1, Reps: 4, Seed: 2}
	var s1 api.Job
	post(t, ts.URL+"/v1/scenario", scen, &s1)
	s1done := waitState(t, ts.URL, s1.ID, api.JobDone)
	if s1done.Cache == nil || s1done.Cache.WarmMisses == 0 {
		t.Errorf("scenario cold cache block = %+v", s1done.Cache)
	}
	var s2 api.Job
	post(t, ts.URL+"/v1/scenario", scen, &s2)
	if s2.State != api.JobDone || s2.Cache == nil || !s2.Cache.ResultHit {
		t.Fatalf("scenario repeat: state %s, cache %+v", s2.State, s2.Cache)
	}
	if !bytes.Equal(s2.Result, s1done.Result) {
		t.Error("scenario repeat bytes differ")
	}
}

// TestCachelessServerOmitsCacheBlock: deployments without -cache keep
// the v0-compatible envelope (no cache field at all).
func TestCachelessServerOmitsCacheBlock(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var j api.Job
	post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "greedy"}, &j)
	done := waitState(t, ts.URL, j.ID, api.JobDone)
	if done.Cache != nil {
		t.Errorf("cacheless job carries a cache block: %+v", done.Cache)
	}
}

// TestEvalTierSharedBySolveAndScenario: on one DAG instance a heft
// solve publishes its final Stage-I evaluation to the cache's
// evaluation tier, and a heft scenario, which ends its Stage I on the
// same allocation, reads it back instead of composing again (the two
// jobs differ in kind, so the result tier cannot answer either). Both
// result documents are byte-identical to a cache-off server's, and the
// tier's counters reach /metrics.
func TestEvalTierSharedBySolveAndScenario(t *testing.T) {
	edges := []config.EdgeSpec{{From: 0, To: 2}, {From: 1, To: 2}}
	run := func(opts Options) (solveDoc, scenarioDoc []byte) {
		t.Helper()
		_, ts := newTestServer(t, opts)
		var j api.Job
		post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "heft", Edges: edges}, &j)
		solveDoc = waitState(t, ts.URL, j.ID, api.JobDone).Result
		post(t, ts.URL+"/v1/scenario", api.ScenarioRequest{IM: "heft", Edges: edges, Reps: 4, Seed: 3}, &j)
		scenarioDoc = waitState(t, ts.URL, j.ID, api.JobDone).Result
		if opts.Metrics != nil {
			var snap struct {
				Counters map[string]int64 `json:"counters"`
			}
			getInto(t, ts.URL+"/metrics", &snap)
			if h, m := snap.Counters["cache.eval_hits"], snap.Counters["cache.eval_misses"]; h != 1 || m != 1 {
				t.Errorf("/metrics cache.eval_hits/misses = %d/%d, want 1/1", h, m)
			}
		}
		return solveDoc, scenarioDoc
	}
	reg := metrics.NewRegistry()
	c := cache.New(cache.Options{Metrics: reg})
	solveOn, scenarioOn := run(Options{Cache: c, Metrics: reg})
	if s := c.Stats(); s.EvalHits != 1 || s.EvalMisses != 1 {
		t.Errorf("eval hits/misses = %d/%d, want the solve's miss and the scenario's hit", s.EvalHits, s.EvalMisses)
	}
	solveOff, scenarioOff := run(Options{})
	if !bytes.Equal(solveOn, solveOff) {
		t.Errorf("solve documents differ with the cache on:\non  %s\noff %s", solveOn, solveOff)
	}
	if !bytes.Equal(scenarioOn, scenarioOff) {
		t.Errorf("scenario documents differ with the cache on:\non  %s\noff %s", scenarioOn, scenarioOff)
	}
}

// TestEvalTierBypassedWithoutEdges: an independent batch's final
// evaluation is n table reads, so a paper-instance scenario and solve
// never look the evaluation tier up.
func TestEvalTierBypassedWithoutEdges(t *testing.T) {
	c := cache.New(cache.Options{})
	_, ts := newTestServer(t, Options{Cache: c})
	var j api.Job
	post(t, ts.URL+"/v1/scenario", api.ScenarioRequest{Scenario: 4, Reps: 4, Seed: 5}, &j)
	waitState(t, ts.URL, j.ID, api.JobDone)
	post(t, ts.URL+"/v1/solve", api.SolveRequest{Heuristic: "greedy"}, &j)
	waitState(t, ts.URL, j.ID, api.JobDone)
	if s := c.Stats(); s.EvalHits != 0 || s.EvalMisses != 0 {
		t.Errorf("eval hits/misses = %d/%d on an independent batch, want 0/0", s.EvalHits, s.EvalMisses)
	}
}
