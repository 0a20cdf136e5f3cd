// Failureinjection stresses the Stage-II techniques with random full
// processor outages (availability collapsing to ~0 for whole epochs) —
// the harshest perturbation a non-dedicated system can inflict short of
// losing the processor permanently. The study sweeps the outage
// probability and reports each technique's mean makespan and the
// probability of meeting a deadline budgeted at 2x the no-failure ideal.
//
// Run with:
//
//	go run ./examples/failureinjection
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
		reps     = 30
	)
	ideal := float64(iters) * iterMean / workers
	deadline := 2 * ideal
	probs := []float64{0, 0.05, 0.1, 0.2, 0.3}

	headers := []string{"Technique"}
	for _, p := range probs {
		headers = append(headers, fmt.Sprintf("p=%.2f", p))
	}
	t := report.NewTable(fmt.Sprintf(
		"Failure injection: mean makespan (Pr meet %.0f) under per-epoch outage probability",
		deadline), headers...)

	names := []string{"STATIC", "TSS", "FAC", "WF", "AWF-B", "AF"}
	arms := make([]sim.Arm, len(names))
	rows := make([][]string, len(names))
	for i, name := range names {
		tech, err := dls.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		arms[i] = sim.Arm{Technique: tech}
		rows[i] = []string{name}
	}
	// One call per outage probability runs every technique on common
	// random numbers: the same outages and iteration costs.
	for _, p := range probs {
		var model availability.Model = availability.Static{PMF: pmf.Point(1)}
		if p > 0 {
			model = availability.Blackout{
				Base:     model,
				Prob:     p,
				Interval: ideal / 4,
			}
		}
		samples, err := sim.RunArmsContext(context.Background(), sim.Config{
			ParallelIters: iters,
			Workers:       workers,
			IterTime:      stats.NewNormal(iterMean, 0.2*iterMean),
			Avail:         model,
			Overhead:      0.5,
			Seed:          23,
		}, arms, reps)
		if err != nil {
			log.Fatal(err)
		}
		for i, s := range samples {
			rows[i] = append(rows[i], fmt.Sprintf("%.0f (%.0f%%)", s.Mean(), s.PrLE(deadline)*100))
		}
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSTATIC pays the full outage duration whenever a blacked-out worker")
	fmt.Println("holds its fixed share; the chunked techniques re-route around outages")
	fmt.Println("and the adaptive ones shrink the blacked-out workers' chunks first.")
}
