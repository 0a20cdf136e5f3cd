// Timestepping demonstrates the original AWF technique on its intended
// workload class: time-stepping scientific applications that sweep the
// same loop repeatedly (e.g. iterative solvers). AWF schedules the first
// sweep with a-priori weights, measures, and re-weights at every step
// boundary — so its per-sweep cost drops after step one, while WF
// (frozen weights) and FAC (no weights) stay flat.
//
// Run with:
//
//	go run ./examples/timestepping
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
		iters   = 4096
		workers = 8
		steps   = 6
		reps    = 25
	)
	// Persistently heterogeneous group: half the processors carry heavy
	// external load for the whole run.
	avail := pmf.MustNew([]pmf.Pulse{{Value: 0.25, Prob: 0.5}, {Value: 1, Prob: 0.5}})

	t := report.NewTable(
		fmt.Sprintf("Time-stepping study: %d sweeps of %d iterations on %d workers",
			steps, iters, workers),
		"Technique", "Total makespan", "Mean per sweep", "Chunks")
	names := []string{"STATIC", "FAC", "WF", "AWF", "AWF-B", "AF"}
	arms := make([]sim.Arm, len(names))
	for i, name := range names {
		tech, err := dls.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		arms[i] = sim.Arm{Technique: tech}
	}
	// One call runs every technique on common random numbers: the same
	// availability draws and iteration costs.
	samples, err := sim.RunArmsContext(context.Background(), sim.Config{
		ParallelIters: iters,
		Workers:       workers,
		IterTime:      stats.NewNormal(1, 0.2),
		Avail:         availability.Static{PMF: avail},
		Overhead:      1,
		TimeSteps:     steps,
		Seed:          17,
	}, arms, reps)
	if err != nil {
		log.Fatal(err)
	}
	for i, s := range samples {
		t.AddRow(names[i],
			fmt.Sprintf("%.0f", s.Mean()),
			fmt.Sprintf("%.0f", s.Mean()/steps),
			fmt.Sprintf("%.0f", s.MeanChunks))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println("AWF starts each run blind (equal weights) but learns at the first")
	fmt.Println("step boundary; over", steps, "sweeps it closes most of the gap to the")
	fmt.Println("fully adaptive techniques without their per-chunk bookkeeping.")
}
