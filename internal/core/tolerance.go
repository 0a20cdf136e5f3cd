package core

import (
	"context"
	"fmt"

	"cdsf/internal/availability"
	"cdsf/internal/dls"
	"cdsf/internal/pmf"
	"cdsf/internal/sim"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
)

// SimTolerance generalizes the paper's rho_2 from four discrete cases
// to a continuous quantity: the largest uniform weighted-availability
// decrease under which every application of the allocated batch still
// meets the deadline in simulation (mean makespan criterion), found by
// bisection. The paper's Table I cases probe 28.17%, 30.77%, and
// 32.77%; SimTolerance answers "where exactly is the edge?".

// ToleranceResult reports the bisection outcome.
type ToleranceResult struct {
	// Decrease is the largest tolerable weighted-availability decrease
	// (a fraction; the paper's bracketed percentages).
	Decrease float64
	// Technique[i] is the best deadline-meeting technique for
	// application i at the tolerance point.
	Technique []string
}

// SimTolerance bisects the uniform availability scale on [lo, 1] until
// the feasible/infeasible boundary is localized within tol (in scale
// units). The RAS set supplies the candidate techniques; an application
// "meets" when some technique's mean simulated makespan is within the
// deadline.
func (f *Framework) SimTolerance(alloc sysmodel.Allocation, ras []dls.Technique, cfg StageIIConfig, lo, tol float64) (*ToleranceResult, error) {
	if err := alloc.Validate(f.Sys, f.Batch); err != nil {
		return nil, err
	}
	if lo <= 0 || lo >= 1 {
		return nil, fmt.Errorf("core: lower scale bound %v outside (0,1)", lo)
	}
	if tol <= 0 {
		return nil, fmt.Errorf("core: non-positive tolerance %v", tol)
	}
	arms := make([]sim.Arm, len(ras))
	for ti, tech := range ras {
		arms[ti] = sim.Arm{Technique: tech}
	}
	mkModel := cfg.Model
	if mkModel == nil {
		mkModel = func(p pmf.PMF) availability.Model { return availability.Static{PMF: p} }
	}
	feasible := func(scale float64) (bool, []string, error) {
		best := make([]string, len(f.Batch))
		for i := range f.Batch {
			app := &f.Batch[i]
			as := alloc[i]
			iterMean := app.ExecTime[as.Type].Mean() / float64(app.TotalIters())
			// The techniques share their draws, as in a scenario cell.
			samples, err := sim.RunArmsContext(context.Background(), sim.Config{
				SerialIters:      app.SerialIters,
				ParallelIters:    app.ParallelIters,
				Workers:          as.Procs,
				IterTime:         stats.NewNormal(iterMean, cfg.IterCV*iterMean),
				Avail:            mkModel(f.Sys.Types[as.Type].Avail.Scale(scale)),
				WeightsFromAvail: true,
				BestMaster:       true,
				Overhead:         cfg.Overhead,
				Seed:             cfg.Seed ^ uint64(i)<<20,
			}, arms, cfg.Reps)
			if err != nil {
				return false, nil, err
			}
			bestTime := 0.0
			for ti, s := range samples {
				if m := s.Mean(); m <= f.Deadline && (best[i] == "" || m < bestTime) {
					best[i], bestTime = ras[ti].Name, m
				}
			}
			if best[i] == "" {
				return false, nil, nil
			}
		}
		return true, best, nil
	}

	okHi, bestHi, err := feasible(1)
	if err != nil {
		return nil, err
	}
	if !okHi {
		return nil, fmt.Errorf("core: batch infeasible even at full availability")
	}
	okLo, _, err := feasible(lo)
	if err != nil {
		return nil, err
	}
	loS, hiS := lo, 1.0
	bestTech := bestHi
	if okLo {
		// Feasible down to the probe floor; report that as the bound.
		return &ToleranceResult{Decrease: 1 - lo, Technique: bestHi}, nil
	}
	for hiS-loS > tol {
		mid := (loS + hiS) / 2
		ok, best, err := feasible(mid)
		if err != nil {
			return nil, err
		}
		if ok {
			hiS = mid
			bestTech = best
		} else {
			loS = mid
		}
	}
	return &ToleranceResult{Decrease: 1 - hiS, Technique: bestTech}, nil
}
