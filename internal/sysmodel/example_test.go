package sysmodel_test

import (
	"fmt"

	"cdsf/internal/pmf"
	"cdsf/internal/sysmodel"
)

// ExampleApplication_ParallelTimePMF applies the paper's Eq. 2: the
// execution time of the paper's application 3 on 8 processors of
// type 2 (5% serial, 95% parallel).
func ExampleApplication_ParallelTimePMF() {
	app := sysmodel.Application{
		Name:          "App 3",
		SerialIters:   216,
		ParallelIters: 4104,
		ExecTime:      []pmf.PMF{pmf.Point(12000), pmf.Point(8000)},
	}
	par := app.ParallelTimePMF(1, 8)
	fmt.Printf("serial fraction = %.2f\n", app.SerialFraction())
	fmt.Printf("T(8 procs of type 2) = %.0f\n", par.Mean())
	// Output:
	// serial fraction = 0.05
	// T(8 procs of type 2) = 1350
}

// ExampleSystem_WeightedAvailability computes the paper's Eq. 1 for the
// reference system: 75%.
func ExampleSystem_WeightedAvailability() {
	sys := &sysmodel.System{Types: []sysmodel.ProcType{
		{Name: "Type 1", Count: 4, Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.75, Prob: 0.5}, {Value: 1, Prob: 0.5}})},
		{Name: "Type 2", Count: 8, Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1, Prob: 0.5}})},
	}}
	fmt.Printf("weighted availability = %.0f%%\n", sys.WeightedAvailability()*100)
	// Output:
	// weighted availability = 75%
}

// ExampleEnumerateAllocations counts the feasible power-of-2
// allocations of one application on the paper's system.
func ExampleEnumerateAllocations() {
	sys := &sysmodel.System{Types: []sysmodel.ProcType{
		{Name: "T1", Count: 4, Avail: pmf.Point(1)},
		{Name: "T2", Count: 8, Avail: pmf.Point(1)},
	}}
	app := sysmodel.Application{
		Name: "a", SerialIters: 1, ParallelIters: 9,
		ExecTime: []pmf.PMF{pmf.Point(10), pmf.Point(20)},
	}
	n := sysmodel.CountAllocations(sys, sysmodel.Batch{app}, 1000)
	fmt.Printf("feasible allocations: %d\n", n) // {1,2,4} on T1 + {1,2,4,8} on T2
	// Output:
	// feasible allocations: 7
}
