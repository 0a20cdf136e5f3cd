package core

import (
	"context"
	"fmt"
	"math"

	"cdsf/internal/availability"
	"cdsf/internal/dls"
	"cdsf/internal/pmf"
	"cdsf/internal/rng"
	"cdsf/internal/sim"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
)

// This file cross-validates the two halves of the framework: Stage I
// predicts each application's completion-time distribution analytically
// (parallel-time PMF divided by the availability PMF); Stage II
// observes completion times from the discrete-event simulator. Under
// the conditions Stage I assumes — the whole run governed by one
// availability draw, the application's total work drawn once per run
// from the execution-time PMF (input-data uncertainty is run-level, not
// per-iteration), and a schedule that splits work in proportion to
// processing rates — the two must agree. ValidateStageI measures the
// agreement with a Kolmogorov-Smirnov distance, quantifying how
// faithful the simulator substitution (DESIGN.md) is where the models
// overlap.

// ValidationResult reports the Stage-I vs Stage-II comparison for one
// application.
type ValidationResult struct {
	App string
	// AnalyticMean and SimMean are the two model means.
	AnalyticMean, SimMean float64
	// KS is the one-sample Kolmogorov-Smirnov distance between the
	// simulated makespans and the analytic completion-time CDF.
	KS float64
	// Critical is the 5% critical value for the simulated sample size;
	// KS <= Critical means the simulator is statistically
	// indistinguishable from the analytic model at that level.
	Critical float64
}

// ValidateStageI simulates application i of the framework's batch on
// its assigned processors under Stage-I-compatible conditions — the
// group shares one availability draw per run, the run's total work is
// one draw from the execution-time PMF, WF splits it by oracle weights,
// zero overhead — and compares the makespan sample with the analytic
// completion PMF.
func (f *Framework) ValidateStageI(alloc sysmodel.Allocation, i, reps int, seed uint64) (*ValidationResult, error) {
	if err := alloc.Validate(f.Sys, f.Batch); err != nil {
		return nil, err
	}
	if i < 0 || i >= len(f.Batch) {
		return nil, fmt.Errorf("core: application index %d out of range", i)
	}
	if reps < 10 {
		return nil, fmt.Errorf("core: %d repetitions too few for validation", reps)
	}
	app := &f.Batch[i]
	as := alloc[i]
	exec := app.ExecTime[as.Type]
	avail := f.Sys.Types[as.Type].Avail
	analytic := app.CompletionPMF(as.Type, as.Procs, avail)

	wf, err := dls.ByName("WF")
	if err != nil {
		return nil, err
	}
	r := rng.New(seed)
	makespans := make([]float64, 0, reps)
	for k := 0; k < reps; k++ {
		// Input-data uncertainty: one total-work draw per run.
		total := exec.Sample(r)
		iterMean := total / float64(app.TotalIters())
		// Availability uncertainty: one group-wide draw per run.
		model := &availability.SharedLoad{
			Shared:      avail,
			Idio:        pmf.Point(1),
			Mix:         1,
			Interval:    analytic.Max() * 100, // constant within a run
			Persistence: 0,
		}
		res, err := sim.RunContext(context.Background(), sim.Config{
			SerialIters:   app.SerialIters,
			ParallelIters: app.ParallelIters,
			Workers:       as.Procs,
			// Near-deterministic iterations: the run-level draw carries
			// the input variability, matching Stage I's model.
			IterTime:         stats.NewNormal(iterMean, 0.02*iterMean),
			Avail:            model,
			Technique:        wf,
			WeightsFromAvail: true,
			Overhead:         0,
			Seed:             r.Uint64(),
		})
		if err != nil {
			return nil, err
		}
		makespans = append(makespans, res.Makespan)
	}
	ks := stats.KSStatisticAgainstCDF(makespans, analytic.PrLE)
	crit, err := stats.KSCritical(0.05, reps, reps)
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, m := range makespans {
		sum += m
	}
	return &ValidationResult{
		App:          app.Name,
		AnalyticMean: analytic.Mean(),
		SimMean:      sum / float64(reps),
		KS:           ks,
		Critical:     crit,
	}, nil
}

// MeanRelativeError returns |SimMean - AnalyticMean| / AnalyticMean.
func (v *ValidationResult) MeanRelativeError() float64 {
	return math.Abs(v.SimMean-v.AnalyticMean) / v.AnalyticMean
}
