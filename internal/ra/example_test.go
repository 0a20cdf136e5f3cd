package ra_test

import (
	"context"
	"fmt"

	"cdsf/internal/pmf"
	"cdsf/internal/ra"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
)

// ExampleExhaustive allocates a two-application batch optimally: the
// deadline-critical application receives the large reliable group.
func ExampleExhaustive() {
	sys := &sysmodel.System{Types: []sysmodel.ProcType{
		{Name: "reliable", Count: 4, Avail: pmf.Point(1)},
		{Name: "flaky", Count: 4, Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.25, Prob: 0.5}, {Value: 1, Prob: 0.5}})},
	}}
	app := func(name string, mu float64) sysmodel.Application {
		return sysmodel.Application{
			Name: name, SerialIters: 100, ParallelIters: 900,
			ExecTime: []pmf.PMF{
				pmf.Discretize(stats.NewNormal(mu, mu/10), 50),
				pmf.Discretize(stats.NewNormal(mu, mu/10), 50),
			},
		}
	}
	batch := sysmodel.Batch{app("urgent", 3000), app("loose", 600)}
	prob := &ra.Problem{Sys: sys, Batch: batch, Deadline: 1200}
	alloc, err := ra.SolveContext(context.Background(), ra.Exhaustive{}, prob)
	if err != nil {
		panic(err)
	}
	phi, _ := prob.Objective(alloc)
	fmt.Printf("urgent -> %s x%d\n", sys.Types[alloc[0].Type].Name, alloc[0].Procs)
	fmt.Printf("phi1 = %.2f\n", phi)
	// Output:
	// urgent -> reliable x4
	// phi1 = 0.98
}

// ExampleByName shows the registry: every heuristic optimizes the same
// objective and is interchangeable behind the Heuristic interface, and
// an unregistered name is refused with the list of registered ones.
func ExampleByName() {
	for _, n := range []string{"naive", "twophase", "tabu", "genetic"} {
		if _, err := ra.ByName(n); err != nil {
			fmt.Println(err)
		} else {
			fmt.Println(n, "registered")
		}
	}
	// Output:
	// naive registered
	// twophase registered
	// tabu registered
	// ra: unknown heuristic "genetic" (have dag-greedy, exhaustive, greedy, heft, minmin, naive, tabu, twophase)
}
