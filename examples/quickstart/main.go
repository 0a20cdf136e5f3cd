// Quickstart: allocate a small batch of stochastic applications onto a
// heterogeneous two-type system with a robust Stage-I heuristic, then
// execute one application with a robust DLS technique in the Stage-II
// simulator.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"cdsf/internal/availability"
	"cdsf/internal/dls"
	"cdsf/internal/pmf"
	"cdsf/internal/ra"
	"cdsf/internal/robustness"
	"cdsf/internal/sim"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
)

func main() {
	// 1. Describe the heterogeneous system: two processor types with
	//    uncertain availability expressed as PMFs (fractions).
	sys := &sysmodel.System{Types: []sysmodel.ProcType{
		{Name: "fast", Count: 4, Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.75, Prob: 0.5}, {Value: 1.0, Prob: 0.5},
		})},
		{Name: "slow", Count: 8, Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1.0, Prob: 0.5},
		})},
	}}

	// 2. Describe the applications. Execution times on one dedicated
	//    processor of each type are random variables; here we discretize
	//    Normal(mu, mu/10) into 100-pulse PMFs.
	mk := func(name string, serial, parallel int, muFast, muSlow float64) sysmodel.Application {
		return sysmodel.Application{
			Name:          name,
			SerialIters:   serial,
			ParallelIters: parallel,
			ExecTime: []pmf.PMF{
				pmf.Discretize(stats.NewNormal(muFast, muFast/10), 100),
				pmf.Discretize(stats.NewNormal(muSlow, muSlow/10), 100),
			},
		}
	}
	batch := sysmodel.Batch{
		mk("alpha", 400, 1600, 1800, 4000),
		mk("beta", 500, 2000, 2800, 6000),
		mk("gamma", 200, 4000, 12000, 8000),
	}

	// 3. Stage I: find the allocation maximizing the probability that
	//    every application finishes before the common deadline.
	const deadline = 3250
	prob := &ra.Problem{Sys: sys, Batch: batch, Deadline: deadline}
	alloc, err := ra.SolveContext(context.Background(), ra.Exhaustive{}, prob)
	if err != nil {
		log.Fatal(err)
	}
	stage1, err := robustness.EvaluateStageI(sys, batch, alloc, deadline)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Stage I allocation: %v\n", alloc)
	for i, a := range batch {
		fmt.Printf("  %-6s -> %d procs of %s  Pr(T<=%d)=%.1f%%  E[T]=%.0f\n",
			a.Name, alloc[i].Procs, sys.Types[alloc[i].Type].Name,
			deadline, stage1.PerApp[i]*100, stage1.ExpectedTimes[i])
	}
	fmt.Printf("phi1 = Pr(all meet deadline) = %.1f%%\n\n", stage1.Phi1*100)

	// 4. Stage II: execute "gamma" on its allocated group with adaptive
	//    factoring under bursty runtime availability.
	af, _ := dls.ByName("AF")
	app := batch[2]
	as := alloc[2]
	iterMean := app.ExecTime[as.Type].Mean() / float64(app.TotalIters())
	sample, err := sim.RunManyContext(context.Background(), sim.Config{
		SerialIters:      app.SerialIters,
		ParallelIters:    app.ParallelIters,
		Workers:          as.Procs,
		IterTime:         stats.NewNormal(iterMean, 0.3*iterMean),
		Avail:            availability.NewMarkov(sys.Types[as.Type].Avail, deadline/4, 0.5),
		Technique:        af,
		WeightsFromAvail: true,
		BestMaster:       true,
		Overhead:         1,
		Seed:             1,
	}, 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Stage II (%s with AF on %d procs): mean makespan %.0f, Pr(T<=%d)=%.0f%%\n",
		app.Name, as.Procs, sample.Mean(), deadline, sample.PrLE(deadline)*100)
}
