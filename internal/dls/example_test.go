package dls_test

import (
	"fmt"

	"cdsf/internal/dls"
)

// ExampleByName drives one scheduler by hand: factoring on 1000
// iterations and 4 workers dispatches geometrically shrinking batches.
func ExampleByName() {
	tech, _ := dls.ByName("FAC")
	s, err := tech.New(dls.Setup{Iterations: 1000, Workers: 4})
	if err != nil {
		panic(err)
	}
	for w := 0; w < 4; w++ {
		fmt.Printf("worker %d gets %d iterations\n", w, s.Next(w))
	}
	fmt.Printf("batch 2 chunk: %d\n", s.Next(0))
	// Output:
	// worker 0 gets 125 iterations
	// worker 1 gets 125 iterations
	// worker 2 gets 125 iterations
	// worker 3 gets 125 iterations
	// batch 2 chunk: 63
}

// ExampleTechnique_adaptive shows AWF-B re-weighting after measured
// imbalance: the worker that reported 4x slower execution receives a
// proportionally smaller share of the next batch.
func ExampleTechnique_adaptive() {
	tech, _ := dls.ByName("AWF-B")
	s, _ := tech.New(dls.Setup{Iterations: 800, Workers: 2})
	k0 := s.Next(0)
	k1 := s.Next(1)
	s.Report(0, k0, float64(k0))   // worker 0: 1 time unit per iteration
	s.Report(1, k1, 4*float64(k1)) // worker 1: 4 time units per iteration
	fmt.Printf("batch 1: %d vs %d\n", k0, k1)
	fmt.Printf("batch 2: %d vs %d\n", s.Next(0), s.Next(1))
	// Output:
	// batch 1: 200 vs 200
	// batch 2: 160 vs 40
}
