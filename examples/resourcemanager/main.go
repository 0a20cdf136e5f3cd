// Resourcemanager studies the Stage-I operational question the paper's
// framework sits inside: applications arrive continuously at a resource
// manager and are scheduled batch after batch. It compares how the
// choice of Stage-I heuristic changes queueing delay and deadline
// satisfaction as the arrival rate grows — naive load balancing wastes
// capacity on equal shares, the robust heuristics keep the batch
// makespans (and hence the queues) short.
//
// Run with:
//
//	go run ./examples/resourcemanager
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"cdsf/internal/batch"
	"cdsf/internal/experiments"
	"cdsf/internal/ra"
	"cdsf/internal/report"
	"cdsf/internal/stats"
)

func main() {
	rates := []float64{1.0 / 4000, 1.0 / 2000, 1.0 / 1000, 1.0 / 500}
	heuristics := []string{"naive", "greedy", "twophase", "exhaustive"}

	t := report.NewTable(
		"Resource-manager study: 120 arrivals on the paper system, per-batch deadline 3250",
		"Arrival rate", "Heuristic", "Batches", "Mean batch", "Mean wait", "Deadline rate (%)")
	for _, rate := range rates {
		for _, name := range heuristics {
			h, err := ra.ByName(name)
			if err != nil {
				log.Fatal(err)
			}
			res, err := batch.RunContext(context.Background(), batch.Config{
				Sys: experiments.ReferenceSystem(),
				Arrivals: batch.ArrivalProcess{
					Interarrival: stats.NewExponential(rate),
					Templates:    experiments.PaperBatch(100),
				},
				Heuristic: h,
				Deadline:  experiments.Deadline,
				MaxBatch:  3,
				Jobs:      120,
				Seed:      9,
			})
			if err != nil {
				log.Fatal(err)
			}
			t.AddRow(
				fmt.Sprintf("1/%.0f", 1/rate),
				name,
				fmt.Sprintf("%d", len(res.Batches)),
				fmt.Sprintf("%.2f", res.MeanBatchSize),
				fmt.Sprintf("%.0f", res.MeanWait),
				fmt.Sprintf("%.0f", res.DeadlineRate*100))
		}
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nHigher arrival rates grow batches and queueing delay; robust")
	fmt.Println("heuristics hold the per-batch deadline rate where naive load")
	fmt.Println("balancing degrades.")
}
