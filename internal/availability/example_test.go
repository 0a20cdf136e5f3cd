package availability_test

import (
	"fmt"

	"cdsf/internal/availability"
	"cdsf/internal/pmf"
	"cdsf/internal/rng"
)

// ExampleMarkov shows the bursty-load model: availability holds for
// whole epochs and jumps between the PMF's levels with the stationary
// distribution equal to the PMF.
func ExampleMarkov() {
	m := availability.Markov{
		PMF:         pmf.MustNew([]pmf.Pulse{{Value: 0.5, Prob: 0.5}, {Value: 1, Prob: 0.5}}),
		Interval:    10,
		Persistence: 0.8,
	}
	p := m.NewProcess(rng.New(1))
	// Work 12 at availability >= 0.5 finishes within 24 time units.
	finish := p.FinishTime(0, 12)
	fmt.Printf("finished within bounds: %v\n", finish >= 12 && finish <= 24)
	fmt.Printf("expected availability: %.2f\n", m.PMF.Mean())
	// Output:
	// finished within bounds: true
	// expected availability: 0.75
}
