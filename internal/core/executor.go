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

// SimExecutor executes a whole allocated batch through the Stage-II
// simulator and returns the batch makespan (the maximum application
// completion time). It satisfies batch.Executor, closing the loop
// between the resource-manager substrate and the runtime simulator: the
// paper's system makespan Psi "represents the time when the next batch
// of applications will require resources".
type SimExecutor struct {
	// Technique schedules every application's loop (one instance each).
	Technique dls.Technique
	// Config carries the Stage-II simulation parameters; Reps > 1
	// averages the per-application makespans.
	Config StageIIConfig
	// Avail optionally overrides the per-type availability PMFs used at
	// runtime (indexed like the system's types); nil uses the system's
	// own (i.e. runtime availability equals the Stage-I expectation).
	Avail []pmf.PMF
}

// Execute implements the batch.Executor contract; ctx cancels the
// per-application replication fan-outs.
func (e SimExecutor) Execute(ctx context.Context, sys *sysmodel.System, b sysmodel.Batch, alloc sysmodel.Allocation, seed uint64) (float64, error) {
	if e.Technique.New == nil {
		return 0, fmt.Errorf("core: SimExecutor has no technique")
	}
	if err := e.Config.validate(); err != nil {
		return 0, err
	}
	if err := alloc.Validate(sys, b); err != nil {
		return 0, err
	}
	mkModel := e.Config.Model
	if mkModel == nil {
		mkModel = func(p pmf.PMF) availability.Model { return availability.Static{PMF: p} }
	}
	makespan := 0.0
	for i := range b {
		as := alloc[i]
		avail := sys.Types[as.Type].Avail
		if e.Avail != nil {
			if len(e.Avail) != len(sys.Types) {
				return 0, fmt.Errorf("core: SimExecutor has %d availability PMFs for %d types",
					len(e.Avail), len(sys.Types))
			}
			avail = e.Avail[as.Type]
		}
		iterMean := b[i].ExecTime[as.Type].Mean() / float64(b[i].TotalIters())
		s, err := sim.RunManyContext(ctx, sim.Config{
			SerialIters:      b[i].SerialIters,
			ParallelIters:    b[i].ParallelIters,
			Workers:          as.Procs,
			IterTime:         stats.NewNormal(iterMean, e.Config.IterCV*iterMean),
			Avail:            mkModel(avail),
			Technique:        e.Technique,
			WeightsFromAvail: true,
			BestMaster:       true,
			Overhead:         e.Config.Overhead,
			Seed:             seed ^ uint64(i)<<32,
		}, e.Config.Reps)
		if err != nil {
			return 0, err
		}
		if m := s.Mean(); m > makespan {
			makespan = m
		}
	}
	return makespan, nil
}
