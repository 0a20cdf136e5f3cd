// Adaptivedls compares the dynamic loop scheduling techniques on a
// single computationally intensive parallel loop (the workload class
// the paper's introduction motivates: data-parallel scientific
// applications with large loops) as the runtime availability
// perturbation grows, illustrating the Stage-II robustness story:
// non-adaptive techniques degrade quickly while the adaptive ones hold
// the makespan near the ideal bound.
//
// Run with:
//
//	go run ./examples/adaptivedls
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"cdsf/internal/availability"
	"cdsf/internal/dls"
	"cdsf/internal/pmf"
	"cdsf/internal/report"
	"cdsf/internal/sim"
	"cdsf/internal/stats"
)

func main() {
	const (
		iters    = 8192
		workers  = 16
		iterMean = 1.0
		reps     = 40
	)
	techniques := []string{"STATIC", "SS", "TSS", "FAC", "WF", "AWF-B", "AWF-C", "AF"}

	// Perturbation levels: the fraction of processors whose availability
	// PMF is severely degraded (the rest stay fully available).
	levels := []struct {
		name string
		pmf  pmf.PMF
	}{
		{"none (dedicated)", pmf.Point(1)},
		{"mild (E=0.85)", pmf.MustNew([]pmf.Pulse{{Value: 0.7, Prob: 0.5}, {Value: 1, Prob: 0.5}})},
		{"moderate (E=0.64)", pmf.MustNew([]pmf.Pulse{{Value: 0.4, Prob: 0.4}, {Value: 0.8, Prob: 0.6}})},
		{"severe (E=0.45)", pmf.MustNew([]pmf.Pulse{{Value: 0.15, Prob: 0.4}, {Value: 0.65, Prob: 0.6}})},
	}

	headers := append([]string{"Technique"}, func() []string {
		names := make([]string, len(levels))
		for i, l := range levels {
			names[i] = l.name
		}
		return names
	}()...)
	t := report.NewTable(fmt.Sprintf(
		"Mean loop makespan: %d iterations on %d workers (ideal at full availability: %.0f)",
		iters, workers, float64(iters)*iterMean/workers), headers...)

	ideal := make([]float64, len(levels))
	for li, l := range levels {
		ideal[li] = float64(iters) * iterMean / (float64(workers) * l.pmf.Mean())
	}

	arms := make([]sim.Arm, len(techniques))
	rows := make([][]string, len(techniques))
	for i, name := range techniques {
		tech, err := dls.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		arms[i] = sim.Arm{Technique: tech}
		rows[i] = []string{name}
	}
	// One call per level runs every technique on common random numbers:
	// the same availability trajectories and iteration costs.
	for _, l := range levels {
		samples, err := sim.RunArmsContext(context.Background(), sim.Config{
			ParallelIters:    iters,
			Workers:          workers,
			IterTime:         stats.NewNormal(iterMean, 0.3*iterMean),
			Avail:            availability.NewMarkov(l.pmf, 150, 0.6),
			WeightsFromAvail: true,
			Overhead:         0.5,
			Seed:             11,
		}, arms, reps)
		if err != nil {
			log.Fatal(err)
		}
		for i, s := range samples {
			rows[i] = append(rows[i], fmt.Sprintf("%.0f", s.Mean()))
		}
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	idealRow := []string{"(ideal bound)"}
	for _, v := range ideal {
		idealRow = append(idealRow, fmt.Sprintf("%.0f", v))
	}
	t.AddRow(idealRow...)
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nThe adaptive techniques (AWF-B, AWF-C, AF) track the ideal bound as")
	fmt.Println("perturbation grows; STATIC degrades the fastest — the paper's")
	fmt.Println("motivation for robust DLS in Stage II.")
}
