package robustness_test

import (
	"fmt"

	"cdsf/internal/pmf"
	"cdsf/internal/robustness"
	"cdsf/internal/sysmodel"
)

// ExampleEvaluateStageI reproduces the core Stage-I computation on a
// miniature instance: two applications, two processor types, one
// deadline.
func ExampleEvaluateStageI() {
	sys := &sysmodel.System{Types: []sysmodel.ProcType{
		{Name: "fast", Count: 2, Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.5, Prob: 0.5}, {Value: 1, Prob: 0.5}})},
		{Name: "slow", Count: 4, Avail: pmf.Point(1)},
	}}
	app := func(name string, tFast, tSlow float64) sysmodel.Application {
		return sysmodel.Application{
			Name: name, SerialIters: 100, ParallelIters: 900,
			ExecTime: []pmf.PMF{pmf.Point(tFast), pmf.Point(tSlow)},
		}
	}
	batch := sysmodel.Batch{app("a", 1000, 1500), app("b", 800, 1200)}
	alloc := sysmodel.Allocation{{Type: 0, Procs: 2}, {Type: 1, Procs: 4}}

	res, err := robustness.EvaluateStageI(sys, batch, alloc, 600)
	if err != nil {
		panic(err)
	}
	for i, pr := range res.PerApp {
		fmt.Printf("%s: Pr = %.2f, E[T] = %.0f\n", batch[i].Name, pr, res.ExpectedTimes[i])
	}
	fmt.Printf("phi1 = %.2f\n", res.Phi1)
	// Output:
	// a: Pr = 0.50, E[T] = 825
	// b: Pr = 1.00, E[T] = 390
	// phi1 = 0.50
}
