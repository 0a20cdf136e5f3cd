package experiments

import (
	"context"
	"fmt"

	"cdsf/internal/core"
	"cdsf/internal/ra"
	"cdsf/internal/report"
	"cdsf/internal/robustness"
)

// This file regenerates every table and figure of the paper's
// evaluation section as renderable reports. Each GenerateX function is
// wrapped by a benchmark in the repository root and by cmd/expgen.

// GenerateTableI reproduces Table I: per-case availability PMFs,
// expected availabilities, weighted system availability, and the
// bracketed decrease relative to the reference case.
func GenerateTableI() *report.Table {
	sys := ReferenceSystem()
	t := report.NewTable(
		"Table I: processor availabilities by type and weighted system availabilities",
		"Case", "Proc", "Availability (%)", "Probability (%)", "Expected avail (%)", "Weighted avail (%)", "Decrease (%)")
	for ci, c := range Cases() {
		pert := sys.WithAvailability(c.Avail)
		dec := "-"
		if ci > 0 {
			dec = fmt.Sprintf("%.2f", robustness.AvailabilityDecrease(sys, pert)*100)
		}
		for j, pt := range pert.Types {
			availStr, probStr := "", ""
			for i, pl := range pt.Avail.Pulses() {
				if i > 0 {
					availStr += "/"
					probStr += "/"
				}
				availStr += fmt.Sprintf("%.0f", pl.Value*100)
				probStr += fmt.Sprintf("%.0f", pl.Prob*100)
			}
			caseCell, weightCell, decCell := "", "", ""
			if j == 0 {
				caseCell = c.Name
				weightCell = fmt.Sprintf("%.2f", pert.WeightedAvailability()*100)
				decCell = dec
			}
			t.AddRow(caseCell, pt.Name, availStr, probStr,
				fmt.Sprintf("%.2f", pt.ExpectedAvail()*100), weightCell, decCell)
		}
	}
	return t
}

// GenerateTableII reproduces Table II: the batch's iteration counts and
// serial/parallel fractions.
func GenerateTableII() *report.Table {
	t := report.NewTable("Table II: characteristics of a batch of applications",
		"App", "# Serial iters", "# Parallel iters", "% Serial", "% Parallel")
	for _, a := range PaperBatch(DefaultPulses) {
		t.AddRow(a.Name,
			fmt.Sprintf("%d", a.SerialIters),
			fmt.Sprintf("%d", a.ParallelIters),
			fmt.Sprintf("%.0f", a.SerialFraction()*100),
			fmt.Sprintf("%.0f", a.ParallelFraction()*100))
	}
	return t
}

// GenerateTableIII reproduces Table III: mean single-processor
// execution times per application and processor type.
func GenerateTableIII() *report.Table {
	t := report.NewTable("Table III: mean single-processor execution times",
		"Processor", AppNames[0], AppNames[1], AppNames[2])
	for j := 0; j < 2; j++ {
		row := []string{fmt.Sprintf("Type %d", j+1)}
		for i := 0; i < 3; i++ {
			row = append(row, fmt.Sprintf("%.0f", meanTimes[i][j]))
		}
		t.AddRow(row...)
	}
	return t
}

// TableIVResult carries the Table IV allocations plus their phi_1.
type TableIVResult struct {
	Naive, Robust  *robustness.StageIResult
	NaiveMatches   bool
	RobustMatches  bool
	NaiveExpected  string
	RobustExpected string
}

// ComputeTableIVContext runs the naive load balancer and exhaustive
// search on the paper instance and evaluates both allocations; the
// exhaustive Stage-I search honors cancellation.
func ComputeTableIVContext(ctx context.Context) (*TableIVResult, error) {
	f := Framework()
	prob := &ra.Problem{Sys: f.Sys, Batch: f.Batch, Deadline: f.Deadline}
	naiveAl, err := ra.SolveContext(ctx, ra.NaiveLoadBalance{}, prob)
	if err != nil {
		return nil, err
	}
	robustAl, err := ra.SolveContext(ctx, &ra.Exhaustive{}, prob)
	if err != nil {
		return nil, err
	}
	naive, err := robustness.EvaluateStageI(f.Sys, f.Batch, naiveAl, f.Deadline)
	if err != nil {
		return nil, err
	}
	robust, err := robustness.EvaluateStageI(f.Sys, f.Batch, robustAl, f.Deadline)
	if err != nil {
		return nil, err
	}
	return &TableIVResult{
		Naive:          naive,
		Robust:         robust,
		NaiveMatches:   naiveAl.Equal(PaperNaiveAllocation()),
		RobustMatches:  robustAl.Equal(PaperRobustAllocation()),
		NaiveExpected:  PaperNaiveAllocation().String(),
		RobustExpected: PaperRobustAllocation().String(),
	}, nil
}

// GenerateTableIVContext reproduces Table IV: the naive and robust IM
// allocations with their joint deadline probabilities.
func GenerateTableIVContext(ctx context.Context) (*report.Table, error) {
	res, err := ComputeTableIVContext(ctx)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table IV: resource allocation for naive and robust IM",
		"RA", "App", "Proc type", "# Procs", "phi1 (%)", "Matches paper")
	for row, r := range []*robustness.StageIResult{res.Naive, res.Robust} {
		name := "naive IM"
		match := res.NaiveMatches
		if row == 1 {
			name = "robust IM"
			match = res.RobustMatches
		}
		for i, as := range r.Alloc {
			nameCell, phiCell, matchCell := "", "", ""
			if i == 0 {
				nameCell = name
				phiCell = fmt.Sprintf("%.1f", r.Phi1*100)
				matchCell = fmt.Sprintf("%v", match)
			}
			t.AddRow(nameCell, AppNames[i], fmt.Sprintf("%d", as.Type+1),
				fmt.Sprintf("%d", as.Procs), phiCell, matchCell)
		}
	}
	return t, nil
}

// GenerateTableVContext reproduces Table V: the expected parallel
// completion times for both allocations, alongside the paper's values.
func GenerateTableVContext(ctx context.Context) (*report.Table, error) {
	res, err := ComputeTableIVContext(ctx)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table V: expected application completion times (time units)",
		"RA", AppNames[0], AppNames[1], AppNames[2], "Paper values")
	t.AddRow("naive IM",
		fmt.Sprintf("%.2f", res.Naive.ExpectedTimes[0]),
		fmt.Sprintf("%.2f", res.Naive.ExpectedTimes[1]),
		fmt.Sprintf("%.2f", res.Naive.ExpectedTimes[2]),
		fmt.Sprintf("%.2f / %.2f / %.2f", PaperTableV[0][0], PaperTableV[0][1], PaperTableV[0][2]))
	t.AddRow("robust IM",
		fmt.Sprintf("%.2f", res.Robust.ExpectedTimes[0]),
		fmt.Sprintf("%.2f", res.Robust.ExpectedTimes[1]),
		fmt.Sprintf("%.2f", res.Robust.ExpectedTimes[2]),
		fmt.Sprintf("%.2f / %.2f / %.2f", PaperTableV[1][0], PaperTableV[1][1], PaperTableV[1][2]))
	return t, nil
}

// scenarioByNumber returns the paper scenario (1-4).
func scenarioByNumber(n int) core.Scenario {
	scs := core.PaperScenarios(ra.NaiveLoadBalance{}, ra.Exhaustive{})
	return scs[n-1]
}

// RunPaperScenarioContext evaluates paper scenario n (1-4) with the
// default calibrated Stage-II configuration and the given seed; ctx
// reaches the Stage-I search and every Stage-II replication fan-out.
func RunPaperScenarioContext(ctx context.Context, n int, seed uint64) (*core.ScenarioResult, error) {
	if n < 1 || n > 4 {
		return nil, fmt.Errorf("experiments: scenario %d out of 1..4", n)
	}
	f := Framework()
	cfg := core.DefaultStageII(Deadline, seed)
	return f.RunScenarioContext(ctx, scenarioByNumber(n), Cases(), cfg)
}

// GenerateFigureContext renders paper figure n (3-6 correspond to
// scenarios 1-4): per-case, per-application, per-technique mean
// execution times as a bar chart against the deadline.
func GenerateFigureContext(ctx context.Context, n int, seed uint64) (*report.BarChart, error) {
	if n < 3 || n > 6 {
		return nil, fmt.Errorf("experiments: figure %d out of 3..6", n)
	}
	res, err := RunPaperScenarioContext(ctx, n-2, seed)
	if err != nil {
		return nil, err
	}
	c := report.NewBarChart(fmt.Sprintf("Figure %d: scenario %s — application execution times", n, res.Scenario))
	c.RefLabel = "deadline"
	c.RefValue = Deadline
	for _, cs := range res.Cases {
		for i, outs := range cs.PerApp {
			c.Gap()
			for _, o := range outs {
				marker := ""
				if !o.Meets {
					marker = "  (!)"
				}
				c.Add(fmt.Sprintf("%s %s %s", cs.Case.Name, AppNames[i], o.Technique), o.MeanTime, marker)
			}
		}
	}
	return c, nil
}

// GenerateTableVIContext reproduces Table VI from scenario 4: the best
// deadline-meeting DLS technique per application and case, plus the
// resulting robustness tuple.
func GenerateTableVIContext(ctx context.Context, seed uint64) (*report.Table, robustness.Tuple, error) {
	res, err := RunPaperScenarioContext(ctx, 4, seed)
	if err != nil {
		return nil, robustness.Tuple{}, err
	}
	t := report.NewTable("Table VI: best DLS technique meeting the deadline (scenario 4)",
		"Application", "Case 1", "Case 2", "Case 3", "Case 4", "Paper")
	for i := 0; i < 3; i++ {
		row := []string{AppNames[i]}
		for ci := 0; ci < 4; ci++ {
			b := res.Cases[ci].Best[i]
			if b == "" {
				b = "-"
			}
			row = append(row, b)
		}
		paper := ""
		for ci := 0; ci < 4; ci++ {
			if ci > 0 {
				paper += "/"
			}
			if PaperTableVI[i][ci] == "" {
				paper += "-"
			} else {
				paper += PaperTableVI[i][ci]
			}
		}
		row = append(row, paper)
		t.AddRow(row...)
	}
	return t, core.SystemRobustness(res), nil
}
