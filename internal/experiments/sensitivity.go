package experiments

import (
	"context"
	"fmt"

	"cdsf/internal/availability"
	"cdsf/internal/core"
	"cdsf/internal/dls"
	"cdsf/internal/pmf"
	"cdsf/internal/ra"
	"cdsf/internal/report"
	"cdsf/internal/robustness"
	"cdsf/internal/sim"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
)

// This file implements the sensitivity studies that back DESIGN.md's
// ablation list: how the reproduction's conclusions react to the
// simulator knobs the paper does not pin down (scheduling overhead,
// iteration variability, availability dynamics) and to the PMF
// granularity of Stage I.

// sensApp returns the paper's application 3 on its robust allocation
// (8 processors of type 2) — the batch's tightest deadline margin and
// therefore the most sensitive probe.
func sensApp() (app int, workers int, iterMean float64, avail pmf.PMF) {
	b := PaperBatch(DefaultPulses)
	a := b[2]
	return 2, 8, a.ExecTime[1].Mean() / float64(a.TotalIters()), availCase1Type2
}

// sensConfig is the simulation of App 3 the sensitivity studies vary:
// its robust allocation under model, with the given per-chunk overhead
// and iteration-time coefficient of variation.
func sensConfig(overhead, cv float64, model availability.Model, seed uint64) sim.Config {
	_, workers, iterMean, _ := sensApp()
	b := PaperBatch(DefaultPulses)
	return sim.Config{
		SerialIters:      b[2].SerialIters,
		ParallelIters:    b[2].ParallelIters,
		Workers:          workers,
		IterTime:         stats.NewNormal(iterMean, cv*iterMean),
		Avail:            model,
		WeightsFromAvail: true,
		BestMaster:       true,
		Overhead:         overhead,
		Seed:             seed,
	}
}

// techniques looks up registered techniques by name.
func techniques(names ...string) ([]dls.Technique, error) {
	out := make([]dls.Technique, len(names))
	for i, name := range names {
		tech, err := dls.ByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = tech
	}
	return out, nil
}

// techTable renders a technique-by-column table of mean makespans. Each
// column runs every technique on column(c) in one sim.RunArmsContext
// call, so the techniques of a column share their draws.
func techTable(title string, techs []dls.Technique, cols []string, reps int, column func(c int) sim.Config) (*report.Table, error) {
	t := report.NewTable(title, append([]string{"Technique"}, cols...)...)
	arms := make([]sim.Arm, len(techs))
	rows := make([][]string, len(techs))
	for i, tech := range techs {
		arms[i] = sim.Arm{Technique: tech}
		rows[i] = []string{tech.Name}
	}
	for c := range cols {
		samples, err := sim.RunArmsContext(context.Background(), column(c), arms, reps)
		if err != nil {
			return nil, err
		}
		for i, s := range samples {
			rows[i] = append(rows[i], fmt.Sprintf("%.0f", s.Mean()))
		}
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

// GenerateOverheadSensitivity sweeps the per-chunk scheduling overhead
// for each Stage-II technique on the paper's application 3 and reports
// mean makespans — the overhead/imbalance tradeoff that separates SS
// from the batched techniques.
func GenerateOverheadSensitivity(seed uint64, reps int) (*report.Table, error) {
	overheads := []float64{0, 0.5, 1, 5, 20}
	cols := make([]string, len(overheads))
	for i, h := range overheads {
		cols[i] = fmt.Sprintf("h=%g", h)
	}
	techs, err := techniques("SS", "FAC", "WF", "AWF-B", "AF")
	if err != nil {
		return nil, err
	}
	_, _, _, avail := sensApp()
	model := availability.NewMarkov(avail, Deadline/4, 0.5)
	return techTable("Overhead sensitivity: mean makespan of App 3 (robust allocation, case-1 availability)",
		techs, cols, reps, func(c int) sim.Config { return sensConfig(overheads[c], 0.3, model, seed) })
}

// GenerateCVSensitivity sweeps the per-iteration coefficient of
// variation — the paper's "uncertain input data" — for the robust
// technique set.
func GenerateCVSensitivity(seed uint64, reps int) (*report.Table, error) {
	cvs := []float64{0.05, 0.1, 0.3, 0.6, 1.0}
	cols := make([]string, len(cvs))
	for i, cv := range cvs {
		cols[i] = fmt.Sprintf("cv=%g", cv)
	}
	_, _, _, avail := sensApp()
	model := availability.NewMarkov(avail, Deadline/4, 0.5)
	return techTable("Iteration-variability sensitivity: mean makespan of App 3",
		dls.PaperRobustSet(), cols, reps, func(c int) sim.Config { return sensConfig(1, cvs[c], model, seed) })
}

// GenerateModelSensitivity compares availability-model families at the
// same marginal distribution: the same case-1 PMF driving static
// draws, periodic redraws, and Markov bursts of varying persistence.
func GenerateModelSensitivity(seed uint64, reps int) (*report.Table, error) {
	_, _, _, avail := sensApp()
	models := []availability.Model{
		availability.Static{PMF: avail},
		availability.Redraw{PMF: avail, Interval: Deadline / 4},
		availability.NewMarkov(avail, Deadline/4, 0.25),
		availability.NewMarkov(avail, Deadline/4, 0.5),
		availability.NewMarkov(avail, Deadline/4, 0.9),
	}
	cols := make([]string, len(models))
	for i, m := range models {
		cols[i] = m.Name()
	}
	return techTable("Availability-model sensitivity: mean makespan of App 3 (same marginal PMF)",
		dls.PaperRobustSet(), cols, reps, func(c int) sim.Config { return sensConfig(1, 0.3, models[c], seed) })
}

// GenerateGranularitySensitivity reports phi_1 for both Table IV
// allocations as the execution-time PMF pulse count grows — the
// Stage-I quantization study.
func GenerateGranularitySensitivity() (*report.Table, error) {
	counts := []int{5, 10, 25, 50, 100, 250, 1000}
	headers := []string{"Allocation"}
	for _, c := range counts {
		headers = append(headers, fmt.Sprintf("%d pulses", c))
	}
	t := report.NewTable("PMF-granularity sensitivity: phi1 (%) vs pulse count", headers...)
	sys := ReferenceSystem()
	naive := []string{"naive IM"}
	robust := []string{"robust IM"}
	for _, c := range counts {
		batch := PaperBatch(c)
		pn, err := robustness.StageIProbability(sys, batch, PaperNaiveAllocation(), Deadline)
		if err != nil {
			return nil, err
		}
		pr, err := robustness.StageIProbability(sys, batch, PaperRobustAllocation(), Deadline)
		if err != nil {
			return nil, err
		}
		naive = append(naive, fmt.Sprintf("%.2f", pn*100))
		robust = append(robust, fmt.Sprintf("%.2f", pr*100))
	}
	t.AddRow(naive...)
	t.AddRow(robust...)
	return t, nil
}

// GenerateDeadlineCurve renders phi_1 of both Table IV allocations as a
// function of the deadline — the robustness curve behind the paper's
// single Delta = 3250 snapshot.
func GenerateDeadlineCurve() (*report.Table, error) {
	sys := ReferenceSystem()
	batch := PaperBatch(DefaultPulses)
	deadlines := []float64{2000, 2500, 2750, 3000, 3250, 3500, 4000, 5000, 8000, 12000}
	headers := []string{"Allocation"}
	for _, d := range deadlines {
		headers = append(headers, fmt.Sprintf("%.0f", d))
	}
	t := report.NewTable("Deadline sweep: phi1 (%) vs Delta", headers...)
	naiveCurve, err := robustness.DeadlineSweep(sys, batch, PaperNaiveAllocation(), deadlines)
	if err != nil {
		return nil, err
	}
	robustCurve, err := robustness.DeadlineSweep(sys, batch, PaperRobustAllocation(), deadlines)
	if err != nil {
		return nil, err
	}
	rowOf := func(name string, curve []robustness.CurvePoint) []string {
		row := []string{name}
		for _, p := range curve {
			row = append(row, fmt.Sprintf("%.1f", p.Value*100))
		}
		return row
	}
	t.AddRow(rowOf("naive IM", naiveCurve)...)
	t.AddRow(rowOf("robust IM", robustCurve)...)
	return t, nil
}

// GenerateToleranceCurve renders phi_1 of the robust allocation under
// uniformly scaled availability — the continuous Stage-II perturbation
// curve whose 74.5%-threshold crossing generalizes rho_2.
func GenerateToleranceCurve() (*report.Table, error) {
	sys := ReferenceSystem()
	batch := PaperBatch(DefaultPulses)
	scales := []float64{1, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.6, 0.5}
	curve, err := robustness.AvailabilityScalingCurve(sys, batch, PaperRobustAllocation(), Deadline, scales)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Availability-scaling curve: robust allocation",
		"Scale", "Weighted-availability decrease (%)", "phi1 (%)")
	for i, p := range curve {
		t.AddRow(
			fmt.Sprintf("%.2f", scales[i]),
			fmt.Sprintf("%.1f", p.X*100),
			fmt.Sprintf("%.2f", p.Value*100))
	}
	return t, nil
}

// RunExtendedTechniqueStudy evaluates every registered DLS technique
// (not just the paper's set) on the scenario-4 allocation across the
// four cases, reporting the number of (application, case) cells whose
// deadline each technique satisfies — the "which techniques would have
// sufficed" extension study.
func RunExtendedTechniqueStudy(seed uint64, reps int) (*report.Table, error) {
	f := Framework()
	cfg := core.DefaultStageII(Deadline, seed)
	cfg.Reps = reps
	sc := core.Scenario{Name: "extended", IM: paperRobustIM{}, RAS: dls.All()}
	res, err := f.RunScenarioContext(context.Background(), sc, Cases(), cfg)
	if err != nil {
		return nil, err
	}
	headers := []string{"Technique", "Cells met (of 12)", "Mean time (case 1..4 avg)"}
	t := report.NewTable("Extended technique study: scenario-4 allocation, all registered techniques", headers...)
	for ti, tech := range sc.RAS {
		met := 0
		sum := 0.0
		n := 0
		for _, c := range res.Cases {
			for _, outs := range c.PerApp {
				o := outs[ti]
				if o.Technique != tech.Name {
					return nil, fmt.Errorf("experiments: outcome order mismatch")
				}
				if o.Meets {
					met++
				}
				sum += o.MeanTime
				n++
			}
		}
		t.AddRow(tech.Name, fmt.Sprintf("%d", met), fmt.Sprintf("%.0f", sum/float64(n)))
	}
	return t, nil
}

// paperRobustIM is a Heuristic that returns the paper's Table IV robust
// allocation directly, pinning the extended study to the exact paper
// configuration.
type paperRobustIM struct{}

func (paperRobustIM) Name() string { return "paper-robust" }

func (paperRobustIM) AllocateContext(context.Context, *ra.Problem) (sysmodel.Allocation, error) {
	return PaperRobustAllocation(), nil
}
