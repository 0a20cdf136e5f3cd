package core

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cdsf/internal/dls"
	"cdsf/internal/metrics"
	"cdsf/internal/ra"
	"cdsf/internal/tracing"
)

// A traced RunScenario must emit the scenario -> case -> app hierarchy
// on the wall clock plus simulated-time worker lanes scoped
// scenario/case/app/technique, and must not change the results.
func TestRunScenarioTracing(t *testing.T) {
	f := testFramework()
	sc := Scenario{Name: "test", IM: ra.Exhaustive{}, RAS: RobustRAS()}
	plain, err := f.RunScenarioContext(context.Background(), sc, testCases(f), quickCfg(1))
	if err != nil {
		t.Fatal(err)
	}

	cfg := quickCfg(1)
	cfg.Obs.Tracer = tracing.New()
	traced, err := f.RunScenarioContext(context.Background(), sc, testCases(f), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Error("tracing changed scenario results")
	}

	var sawScenario, sawCase, sawApp, sawStage1 bool
	var simLanes []string
	for _, s := range cfg.Obs.Tracer.Spans() {
		switch {
		case s.Clock == tracing.Wall && s.Lane == "stage2":
			switch s.Cat {
			case "scenario":
				sawScenario = true
			case "case":
				sawCase = true
			case "app":
				sawApp = true
			case "stage1":
				sawStage1 = true
			}
		case s.Clock == tracing.Sim:
			simLanes = append(simLanes, s.Lane)
		}
	}
	if !sawScenario || !sawCase || !sawApp || !sawStage1 {
		t.Errorf("wall hierarchy incomplete: scenario %v case %v app %v stage1 %v",
			sawScenario, sawCase, sawApp, sawStage1)
	}
	if len(simLanes) == 0 {
		t.Fatal("no simulated-time lanes")
	}
	// Lanes follow scenario/case/app/technique/w<NN>: 5 segments with
	// the scenario and case names leading.
	for _, lane := range simLanes {
		if !strings.HasPrefix(lane, "test/") {
			t.Fatalf("sim lane %q does not start with the scenario name", lane)
		}
		if parts := strings.Split(lane, "/"); len(parts) != 5 {
			t.Fatalf("sim lane %q does not follow scenario/case/app/technique/worker", lane)
		}
	}
}

// RunScenario reports scenario, case and replication progress to the
// board in its scope.
func TestRunScenarioProgress(t *testing.T) {
	f := testFramework()
	sc := Scenario{Name: "test", IM: ra.Exhaustive{}, RAS: NaiveRAS()}
	cases := testCases(f)
	cfg := quickCfg(1)
	cfg.Obs.Progress = tracing.NewProgress()
	if _, err := f.RunScenarioContext(context.Background(), sc, cases, cfg); err != nil {
		t.Fatal(err)
	}
	s := cfg.Obs.Progress.Snapshot()
	if s.Scenarios != (tracing.Counts{Done: 1, Planned: 1}) {
		t.Errorf("scenarios = %+v", s.Scenarios)
	}
	if s.Cases != (tracing.Counts{Done: int64(len(cases)), Planned: int64(len(cases))}) {
		t.Errorf("cases = %+v", s.Cases)
	}
	if s.Replications.Done == 0 || s.Replications.Done != s.Replications.Planned {
		t.Errorf("replications = %+v", s.Replications)
	}
}

// Two scenarios running at once with distinct scopes must each report
// only to their own registry, tracer and board: no instrumentation is
// shared between runs.
func TestConcurrentScopesAreIsolated(t *testing.T) {
	type run struct {
		name string
		ras  []dls.Technique
		reps int
		obs  tracing.Scope
		err  error
	}
	runs := []*run{
		{name: "alpha", ras: RobustRAS(), reps: 5},
		{name: "beta", ras: NaiveRAS(), reps: 3},
	}
	var wg sync.WaitGroup
	for _, r := range runs {
		r.obs = tracing.Scope{Metrics: metrics.NewRegistry(), Tracer: tracing.New(), Progress: tracing.NewProgress()}
		wg.Add(1)
		go func(r *run) {
			defer wg.Done()
			f := testFramework()
			cfg := quickCfg(7)
			cfg.Reps = r.reps
			cfg.Obs = r.obs
			sc := Scenario{Name: r.name, IM: ra.Exhaustive{}, RAS: r.ras}
			_, r.err = f.RunScenarioContext(context.Background(), sc, testCases(f), cfg)
		}(r)
	}
	wg.Wait()
	for i, r := range runs {
		if r.err != nil {
			t.Fatalf("%s: %v", r.name, r.err)
		}
		other := runs[1-i].name
		// 2 applications x 2 cases x len(ras) techniques x reps.
		reps := int64(2 * 2 * len(r.ras) * r.reps)
		snap := r.obs.Metrics.Snapshot()
		if got := snap.Counters["core.scenarios"]; got != 1 {
			t.Errorf("%s: core.scenarios = %d, want 1", r.name, got)
		}
		if got := snap.Counters["sim.replications"]; got != reps {
			t.Errorf("%s: sim.replications = %d, want %d", r.name, got, reps)
		}
		if snap.Counters["ra.evaluations"] == 0 {
			t.Errorf("%s: Stage I reported no evaluations", r.name)
		}
		for name := range snap.Counters {
			if strings.Contains(name, other) {
				t.Errorf("%s: registry holds %s's counter %q", r.name, other, name)
			}
		}
		for _, s := range r.obs.Tracer.Spans() {
			if s.Clock == tracing.Sim && !strings.HasPrefix(s.Lane, r.name+"/") {
				t.Fatalf("%s: tracer holds foreign lane %q", r.name, s.Lane)
			}
			if s.Cat == "scenario" && s.Name != r.name {
				t.Errorf("%s: tracer holds foreign scenario span %q", r.name, s.Name)
			}
		}
		want := tracing.ProgressSnapshot{
			Scenarios:    tracing.Counts{Done: 1, Planned: 1},
			Cases:        tracing.Counts{Done: 2, Planned: 2},
			Replications: tracing.Counts{Done: reps, Planned: reps},
		}
		if got := r.obs.Progress.Snapshot(); got != want {
			t.Errorf("%s: progress = %+v, want %+v", r.name, got, want)
		}
	}
}
