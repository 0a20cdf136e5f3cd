package sim_test

import (
	"context"
	"fmt"

	"cdsf/internal/availability"
	"cdsf/internal/dls"
	"cdsf/internal/pmf"
	"cdsf/internal/sim"
	"cdsf/internal/stats"
)

// ExampleRun executes one loop with factoring on four dedicated
// processors; with deterministic iteration costs the makespan is the
// ideal N/P plus dispatch overheads on the critical path.
func ExampleRunContext() {
	fac, _ := dls.ByName("FAC")
	r, err := sim.RunContext(context.Background(), sim.Config{
		ParallelIters: 1000,
		Workers:       4,
		IterTime:      stats.Truncated{Dist: stats.NewNormal(1, 0.0001), Lo: 0.99, Hi: 1.01},
		Avail:         availability.Static{PMF: pmf.Point(1)},
		Technique:     fac,
		Overhead:      0,
		Seed:          1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("makespan within 1%% of ideal: %v\n", r.Makespan < 1000.0/4*1.01)
	fmt.Printf("all iterations executed: %v\n",
		r.WorkerIters[0]+r.WorkerIters[1]+r.WorkerIters[2]+r.WorkerIters[3] == 1000)
	// Output:
	// makespan within 1% of ideal: true
	// all iterations executed: true
}

// ExampleRunMany aggregates repetitions into a makespan sample with
// deadline statistics.
func ExampleRunManyContext() {
	af, _ := dls.ByName("AF")
	s, err := sim.RunManyContext(context.Background(), sim.Config{
		ParallelIters: 500,
		Workers:       4,
		IterTime:      stats.NewNormal(1, 0.2),
		Avail:         availability.Static{PMF: pmf.Point(1)},
		Technique:     af,
		Seed:          7,
	}, 30)
	if err != nil {
		panic(err)
	}
	fmt.Printf("30 runs, mean near ideal: %v\n", s.Mean() > 120 && s.Mean() < 140)
	fmt.Printf("Pr(T <= 2*ideal) = %.0f%%\n", s.PrLE(250)*100)
	// Output:
	// 30 runs, mean near ideal: true
	// Pr(T <= 2*ideal) = 100%
}
