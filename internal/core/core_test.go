package core

import (
	"context"
	"math"
	"testing"

	"cdsf/internal/availability"
	"cdsf/internal/pmf"
	"cdsf/internal/ra"
	"cdsf/internal/robustness"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
)

func testFramework() *Framework {
	sys := &sysmodel.System{Types: []sysmodel.ProcType{
		{Name: "T1", Count: 2, Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.75, Prob: 0.5}, {Value: 1, Prob: 0.5}})},
		{Name: "T2", Count: 4, Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.5, Prob: 0.5}, {Value: 1, Prob: 0.5}})},
	}}
	app := func(name string, mu1, mu2 float64) sysmodel.Application {
		return sysmodel.Application{
			Name:          name,
			SerialIters:   50,
			ParallelIters: 950,
			ExecTime: []pmf.PMF{
				pmf.Discretize(stats.NewNormal(mu1, mu1/10), 60),
				pmf.Discretize(stats.NewNormal(mu2, mu2/10), 60),
			},
		}
	}
	return &Framework{
		Sys:      sys,
		Batch:    sysmodel.Batch{app("a", 900, 1300), app("b", 1600, 1100)},
		Deadline: 1500,
	}
}

func quickCfg(seed uint64) StageIIConfig {
	return StageIIConfig{
		Reps:   5,
		IterCV: 0.2,
		Model: func(p pmf.PMF) availability.Model {
			return availability.Static{PMF: p}
		},
		Seed: seed,
	}
}

func testCases(f *Framework) []Case {
	ref := make([]pmf.PMF, len(f.Sys.Types))
	degraded := make([]pmf.PMF, len(f.Sys.Types))
	for j, t := range f.Sys.Types {
		ref[j] = t.Avail
		degraded[j] = t.Avail.Scale(0.5)
	}
	return []Case{
		{Name: "ref", Avail: ref},
		{Name: "half", Avail: degraded},
	}
}

func TestRunScenarioEndToEnd(t *testing.T) {
	f := testFramework()
	sc := Scenario{Name: "test", IM: ra.Exhaustive{}, RAS: RobustRAS()}
	res, err := f.RunScenarioContext(context.Background(), sc, testCases(f), quickCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.StageI.Phi1 <= 0 || res.StageI.Phi1 > 1 {
		t.Errorf("phi1 = %v", res.StageI.Phi1)
	}
	if len(res.Cases) != 2 {
		t.Fatalf("got %d cases", len(res.Cases))
	}
	for _, c := range res.Cases {
		if len(c.PerApp) != 2 {
			t.Fatalf("case %s has %d apps", c.Case.Name, len(c.PerApp))
		}
		for i, outs := range c.PerApp {
			if len(outs) != 4 {
				t.Fatalf("app %d has %d technique outcomes", i, len(outs))
			}
			for _, o := range outs {
				if o.MeanTime <= 0 {
					t.Errorf("%s %s: mean time %v", c.Case.Name, o.Technique, o.MeanTime)
				}
				if o.PrMeet < 0 || o.PrMeet > 1 {
					t.Errorf("PrMeet = %v", o.PrMeet)
				}
			}
		}
	}
	// The reference case must have decrease 0; the degraded one 0.5.
	if res.Cases[0].Decrease != 0 {
		t.Errorf("reference decrease = %v", res.Cases[0].Decrease)
	}
	if math.Abs(res.Cases[1].Decrease-0.5) > 1e-9 {
		t.Errorf("degraded decrease = %v", res.Cases[1].Decrease)
	}
}

func TestDegradedCaseSlower(t *testing.T) {
	f := testFramework()
	sc := Scenario{Name: "test", IM: ra.Exhaustive{}, RAS: NaiveRAS()}
	res, err := f.RunScenarioContext(context.Background(), sc, testCases(f), quickCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Batch {
		ref := res.Cases[0].PerApp[i][0].MeanTime
		deg := res.Cases[1].PerApp[i][0].MeanTime
		if deg <= ref {
			t.Errorf("app %d: degraded availability not slower (%v vs %v)", i, deg, ref)
		}
	}
}

func TestSystemRobustness(t *testing.T) {
	res := &ScenarioResult{
		StageI: &robustness.StageIResult{Phi1: 0.745},
		Cases: []CaseResult{
			{Decrease: 0, AllMeet: true},
			{Decrease: 0.28, AllMeet: true},
			{Decrease: 0.31, AllMeet: true},
			{Decrease: 0.33, AllMeet: false},
		},
	}
	tuple := SystemRobustness(res)
	if tuple.Rho1 != 0.745 {
		t.Errorf("rho1 = %v", tuple.Rho1)
	}
	if math.Abs(tuple.Rho2-0.31) > 1e-12 {
		t.Errorf("rho2 = %v", tuple.Rho2)
	}
}

func TestPaperScenarios(t *testing.T) {
	scs := PaperScenarios(ra.NaiveLoadBalance{}, ra.Exhaustive{})
	if len(scs) != 4 {
		t.Fatalf("got %d scenarios", len(scs))
	}
	if len(scs[0].RAS) != 1 || scs[0].RAS[0].Name != "STATIC" {
		t.Error("scenario 1 RAS is not {STATIC}")
	}
	if len(scs[3].RAS) != 4 {
		t.Error("scenario 4 RAS is not the robust set")
	}
	if scs[1].IM.Name() != "exhaustive" || scs[2].IM.Name() != "naive" {
		t.Error("scenario IM policies wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	f := testFramework()
	sc := Scenario{Name: "t", IM: ra.Exhaustive{}, RAS: NaiveRAS()}
	bad := quickCfg(1)
	bad.Reps = 0
	if _, err := f.RunScenarioContext(context.Background(), sc, testCases(f), bad); err == nil {
		t.Error("zero reps accepted")
	}
	bad = quickCfg(1)
	bad.IterCV = 0
	if _, err := f.RunScenarioContext(context.Background(), sc, testCases(f), bad); err == nil {
		t.Error("zero IterCV accepted")
	}
	// Mismatched case availability length.
	badCase := []Case{{Name: "x", Avail: []pmf.PMF{pmf.Point(1)}}}
	if _, err := f.RunScenarioContext(context.Background(), sc, badCase, quickCfg(1)); err == nil {
		t.Error("mismatched case accepted")
	}
}

func TestDefaultStageIIValid(t *testing.T) {
	cfg := DefaultStageII(3250, 1)
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Model == nil {
		t.Error("default config missing calibrated settings")
	}
}

func TestDecrease(t *testing.T) {
	f := testFramework()
	cs := testCases(f)
	if got := f.Decrease(cs[0]); got != 0 {
		t.Errorf("reference decrease = %v", got)
	}
	if got := f.Decrease(cs[1]); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("half decrease = %v", got)
	}
}

func TestSimTolerance(t *testing.T) {
	f := testFramework()
	alloc := sysmodel.Allocation{{Type: 0, Procs: 2}, {Type: 1, Procs: 4}}
	cfg := quickCfg(3)
	res, err := f.SimTolerance(alloc, RobustRAS(), cfg, 0.1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decrease <= 0 || res.Decrease >= 1 {
		t.Fatalf("tolerance = %v", res.Decrease)
	}
	for i, tech := range res.Technique {
		if tech == "" {
			t.Errorf("no feasible technique recorded for app %d", i)
		}
	}
	t.Logf("simulated tolerance: %.1f%% decrease (techniques %v)", res.Decrease*100, res.Technique)
	// Errors.
	if _, err := f.SimTolerance(alloc, RobustRAS(), cfg, 0, 0.05); err == nil {
		t.Error("lo=0 accepted")
	}
	if _, err := f.SimTolerance(alloc, RobustRAS(), cfg, 0.5, 0); err == nil {
		t.Error("tol=0 accepted")
	}
	// A hopeless deadline errors out.
	tight := *f
	tight.Deadline = 1
	if _, err := tight.SimTolerance(alloc, RobustRAS(), quickCfg(3), 0.5, 0.05); err == nil {
		t.Error("infeasible instance accepted")
	}
}
