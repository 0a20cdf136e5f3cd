package experiments

import (
	"context"
	"math"
	"testing"

	"cdsf/internal/availability"
	"cdsf/internal/core"
	"cdsf/internal/dls"
	"cdsf/internal/robustness"
	"cdsf/internal/sim"
	"cdsf/internal/stats"
)

// TestPaperRobustnessTuple verifies the headline result of the paper's
// scenario 4: system robustness (rho1, rho2) = (74.5%, 30.77%). Our
// Table I PMFs give a case-3 decrease of 30.89% (the paper's printed
// 30.77% is inconsistent with its own printed PMFs by ~0.1 pp), so the
// tolerance reflects that.
func TestPaperRobustnessTuple(t *testing.T) {
	if testing.Short() {
		t.Skip("stage-II simulation is slow")
	}
	res, err := RunPaperScenarioContext(context.Background(), 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	tuple := core.SystemRobustness(res)
	if math.Abs(tuple.Rho1-0.745) > 0.01 {
		t.Errorf("rho1 = %v, want ~0.745", tuple.Rho1)
	}
	if math.Abs(tuple.Rho2-0.3077) > 0.005 {
		t.Errorf("rho2 = %v, want ~0.3077", tuple.Rho2)
	}
}

// TestPaperScenario4Shape verifies the qualitative Table VI / Figure 6
// claims: all applications meet the deadline in cases 1-3; in case 4
// application 2 fails under every technique while applications 1 and 3
// still meet it, with AF the best technique for application 3.
func TestPaperScenario4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("stage-II simulation is slow")
	}
	res, err := RunPaperScenarioContext(context.Background(), 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < 3; ci++ {
		if !res.Cases[ci].AllMeet {
			t.Errorf("%s: not all applications meet the deadline", res.Cases[ci].Case.Name)
		}
	}
	c4 := res.Cases[3]
	if c4.AllMeet {
		t.Error("case 4 unexpectedly robust")
	}
	if c4.Best[0] == "" {
		t.Error("case 4: application 1 should meet the deadline")
	}
	if c4.Best[1] != "" {
		t.Errorf("case 4: application 2 met the deadline with %s", c4.Best[1])
	}
	if c4.Best[2] == "" {
		t.Error("case 4: application 3 should meet the deadline")
	}
	afMeets := false
	for _, o := range c4.PerApp[2] {
		if o.Technique == "AF" && o.Meets {
			afMeets = true
		}
	}
	if !afMeets {
		t.Error("case 4: AF should meet the deadline for application 3")
	}
}

// TestPaperScenario1Fails verifies the scenario-1 claim: naive IM plus
// STATIC violates the deadline in every availability case.
func TestPaperScenario1Fails(t *testing.T) {
	if testing.Short() {
		t.Skip("stage-II simulation is slow")
	}
	res, err := RunPaperScenarioContext(context.Background(), 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.StageI.Phi1-0.26) > 0.01 {
		t.Errorf("scenario 1 phi1 = %v, want ~0.26", res.StageI.Phi1)
	}
	for _, c := range res.Cases {
		if c.AllMeet {
			t.Errorf("scenario 1 %s: unexpectedly met the deadline", c.Case.Name)
		}
	}
}

// TestPaperScenario2Fails verifies the scenario-2 claim: even with the
// robust allocation, STATIC scheduling violates the deadline in every
// case at runtime.
func TestPaperScenario2Fails(t *testing.T) {
	if testing.Short() {
		t.Skip("stage-II simulation is slow")
	}
	res, err := RunPaperScenarioContext(context.Background(), 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.StageI.Phi1-0.745) > 0.01 {
		t.Errorf("scenario 2 phi1 = %v, want ~0.745", res.StageI.Phi1)
	}
	for _, c := range res.Cases {
		if c.AllMeet {
			t.Errorf("scenario 2 %s: unexpectedly met the deadline", c.Case.Name)
		}
	}
}

// TestPaperScenario3NotRobust verifies the scenario-3 claim: robust DLS
// cannot compensate for the naive allocation — the batch misses the
// deadline in cases 2-4 (the paper additionally reports a violation in
// case 1 for application 3, which sits exactly on the deadline boundary
// in our simulator, so case 1 is not asserted).
func TestPaperScenario3NotRobust(t *testing.T) {
	if testing.Short() {
		t.Skip("stage-II simulation is slow")
	}
	res, err := RunPaperScenarioContext(context.Background(), 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cases[1:] {
		if c.AllMeet {
			t.Errorf("scenario 3 %s: unexpectedly met the deadline", c.Case.Name)
		}
	}
}

// TestGenerateEverything smoke-tests every table and figure generator.
func TestGenerateEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("stage-II simulation is slow")
	}
	if s := GenerateTableI().String(); len(s) == 0 {
		t.Error("Table I empty")
	}
	if s := GenerateTableII().String(); len(s) == 0 {
		t.Error("Table II empty")
	}
	if s := GenerateTableIII().String(); len(s) == 0 {
		t.Error("Table III empty")
	}
	t4, err := GenerateTableIVContext(context.Background())
	if err != nil || len(t4.String()) == 0 {
		t.Errorf("Table IV: %v", err)
	}
	t5, err := GenerateTableVContext(context.Background())
	if err != nil || len(t5.String()) == 0 {
		t.Errorf("Table V: %v", err)
	}
	for n := 3; n <= 6; n++ {
		c, err := GenerateFigureContext(context.Background(), n, 42)
		if err != nil || len(c.String()) == 0 {
			t.Errorf("Figure %d: %v", n, err)
		}
	}
	t6, tuple, err := GenerateTableVIContext(context.Background(), 42)
	if err != nil || len(t6.String()) == 0 {
		t.Errorf("Table VI: %v", err)
	}
	if tuple.Rho1 <= 0 {
		t.Errorf("tuple = %v", tuple)
	}
	if _, err := GenerateFigureContext(context.Background(), 7, 1); err == nil {
		t.Error("figure 7 accepted")
	}
	if _, err := RunPaperScenarioContext(context.Background(), 0, 1); err == nil {
		t.Error("scenario 0 accepted")
	}
}

// TestValidateSimulatorAgainstStageI cross-validates the discrete-event
// simulator against the paper's analytic Stage-I model on the robust
// allocation: under Stage-I-compatible conditions the simulated
// makespan distribution must be statistically indistinguishable from
// the analytic completion PMF (see core.ValidateStageI).
func TestValidateSimulatorAgainstStageI(t *testing.T) {
	if testing.Short() {
		t.Skip("validation is slow")
	}
	f := Framework()
	alloc := PaperRobustAllocation()
	for i := range f.Batch {
		v, err := f.ValidateStageI(alloc, i, 300, 7)
		if err != nil {
			t.Fatal(err)
		}
		if v.MeanRelativeError() > 0.03 {
			t.Errorf("%s: sim mean %v vs analytic %v", v.App, v.SimMean, v.AnalyticMean)
		}
		if v.KS > 2*v.Critical {
			t.Errorf("%s: KS %v far above critical %v", v.App, v.KS, v.Critical)
		}
		t.Logf("%s: analytic %.1f sim %.1f KS %.3f (crit %.3f)",
			v.App, v.AnalyticMean, v.SimMean, v.KS, v.Critical)
	}
}

// TestStaticRuntimeModelMatchesSimulator cross-validates the analytic
// max-over-draws STATIC model (robustness.StaticRuntimePMF) against the
// discrete-event simulator under matching conditions: per-worker static
// availability draws, run-level work draw, no overhead.
func TestStaticRuntimeModelMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("validation is slow")
	}
	f := Framework()
	app := &f.Batch[2] // App 3 on 8 processors of type 2
	avail := f.Sys.Types[1].Avail
	analytic := robustness.StaticRuntimePMF(app, 1, 8, avail, 400)

	static, _ := dls.ByName("STATIC")
	iterMean := app.ExecTime[1].Mean() / float64(app.TotalIters())
	s, err := sim.RunManyContext(context.Background(), sim.Config{
		SerialIters:   app.SerialIters,
		ParallelIters: app.ParallelIters,
		Workers:       8,
		IterTime:      stats.NewNormal(iterMean, 0.1*iterMean),
		Avail:         availability.Static{PMF: avail},
		Technique:     static,
		Overhead:      0,
		Seed:          3,
	}, 400)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(s.Mean()-analytic.Mean()) / analytic.Mean()
	t.Logf("analytic STATIC %.0f, simulated %.0f (%.1f%% apart)",
		analytic.Mean(), s.Mean(), rel*100)
	if rel > 0.10 {
		t.Errorf("analytic %v vs simulated %v differ by %.1f%%",
			analytic.Mean(), s.Mean(), rel*100)
	}
}

// TestSimulatedToleranceEdge locates the continuous version of rho_2:
// the exact uniform weighted-availability decrease at which the robust
// allocation stops meeting the deadline under the robust technique set.
// The paper's discrete cases bound it between 30.77% (met) and 32.77%
// (violated); the bisected edge must land in a neighborhood of that
// bracket.
func TestSimulatedToleranceEdge(t *testing.T) {
	if testing.Short() {
		t.Skip("tolerance bisection is slow")
	}
	f := Framework()
	cfg := core.DefaultStageII(Deadline, 42)
	cfg.Reps = 30
	res, err := f.SimTolerance(PaperRobustAllocation(), core.RobustRAS(), cfg, 0.3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("continuous rho2 = %.1f%% decrease (techniques %v)", res.Decrease*100, res.Technique)
	if res.Decrease < 0.15 || res.Decrease > 0.5 {
		t.Errorf("tolerance %.1f%% far outside the paper's bracket", res.Decrease*100)
	}
}
