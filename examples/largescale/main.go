// Largescale runs the paper's future-work experiment: a larger
// heterogeneous system (three processor types, 56 processors) and a
// bigger batch (8 applications), beyond the scale at which the paper
// could run its exhaustive Stage-I search. It compares the heuristics'
// robustness (phi1) and runtime against the branch-and-bound
// exhaustive optimum, then feeds the best allocation through the
// Stage-II simulator under increasing availability perturbation to
// locate the system's tolerance.
//
// Run with:
//
//	go run ./examples/largescale
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"cdsf/internal/availability"
	"cdsf/internal/core"
	"cdsf/internal/dls"
	"cdsf/internal/pmf"
	"cdsf/internal/ra"
	"cdsf/internal/report"
	"cdsf/internal/rng"
	"cdsf/internal/robustness"
	"cdsf/internal/sim"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
)

const deadline = 5000

func buildSystem() *sysmodel.System {
	return &sysmodel.System{Types: []sysmodel.ProcType{
		{Name: "Type 1", Count: 8, Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.75, Prob: 0.5}, {Value: 1, Prob: 0.5}})},
		{Name: "Type 2", Count: 16, Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1, Prob: 0.5}})},
		{Name: "Type 3", Count: 32, Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.4, Prob: 0.3}, {Value: 0.7, Prob: 0.4}, {Value: 0.9, Prob: 0.3}})},
	}}
}

func buildBatch(seed uint64) sysmodel.Batch {
	r := rng.New(seed)
	b := make(sysmodel.Batch, 8)
	for i := range b {
		total := 1024 + r.Intn(6144)
		sf := 0.02 + 0.25*r.Float64()
		serial := int(sf * float64(total))
		exec := make([]pmf.PMF, 3)
		// Each type has a different speed personality per application.
		base := 1000 * (1 + 6*r.Float64())
		for j := range exec {
			mu := base * (0.6 + 1.2*r.Float64())
			exec[j] = pmf.Discretize(stats.NewNormal(mu, mu/10), 80)
		}
		b[i] = sysmodel.Application{
			Name:          fmt.Sprintf("App %d", i+1),
			SerialIters:   serial,
			ParallelIters: total - serial,
			ExecTime:      exec,
		}
	}
	return b
}

func main() {
	sys := buildSystem()
	batch := buildBatch(7)
	prob := &ra.Problem{Sys: sys, Batch: batch, Deadline: deadline}

	fmt.Printf("Large-scale instance: %d applications on %d processors of %d types, deadline %d\n\n",
		len(batch), sys.TotalProcessors(), len(sys.Types), deadline)

	// Stage I: heuristic shoot-out.
	t := report.NewTable("Stage-I heuristics on the large instance",
		"Heuristic", "phi1 (%)", "max E[T]", "Time")
	type outcome struct {
		name  string
		alloc sysmodel.Allocation
		phi   float64
	}
	var best *outcome
	for _, name := range []string{"naive", "greedy", "minmin", "twophase", "exhaustive", "tabu"} {
		h, err := ra.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		al, err := ra.SolveContext(context.Background(), h, prob)
		dt := time.Since(t0)
		if err != nil {
			t.AddRow(name, "error: "+err.Error(), "", "")
			continue
		}
		res, err := robustness.EvaluateStageI(sys, batch, al, deadline)
		if err != nil {
			log.Fatal(err)
		}
		maxE := 0.0
		for _, e := range res.ExpectedTimes {
			if e > maxE {
				maxE = e
			}
		}
		t.AddRow(name, fmt.Sprintf("%.2f", res.Phi1*100),
			fmt.Sprintf("%.0f", maxE), dt.Round(time.Millisecond).String())
		if best == nil || res.Phi1 > best.phi {
			best = &outcome{name: name, alloc: al, phi: res.Phi1}
		}
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nBest stage-I policy: %s (phi1 = %.2f%%)\n\n", best.name, best.phi*100)

	// Stage II: degrade availability uniformly and find the tolerance.
	fmt.Println("Stage II: uniform availability degradation sweep (AF, best allocation)")
	t2 := report.NewTable("", "Degradation (%)", "Weighted avail (%)", "Mean makespan", "Meets deadline")
	cfg := core.DefaultStageII(deadline, 42)
	cfg.Reps = 20
	for _, deg := range []float64{0, 0.10, 0.20, 0.30, 0.40} {
		scaled := make([]pmf.PMF, len(sys.Types))
		for j, pt := range sys.Types {
			scaled[j] = pt.Avail.Scale(1 - deg)
		}
		pert := sys.WithAvailability(scaled)

		// Simulate every application with AF on the best allocation.
		worst := 0.0
		for i := range batch {
			s, err := simOne(batch[i], best.alloc[i], scaled[best.alloc[i].Type], cfg)
			if err != nil {
				log.Fatal(err)
			}
			if s > worst {
				worst = s
			}
		}
		t2.AddRow(fmt.Sprintf("%.0f", deg*100),
			fmt.Sprintf("%.1f", pert.WeightedAvailability()*100),
			fmt.Sprintf("%.0f", worst),
			fmt.Sprintf("%v", worst <= deadline))
	}
	if err := t2.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// simOne runs the Stage-II simulator for one application under AF and
// returns the mean makespan.
func simOne(app sysmodel.Application, as sysmodel.Assignment, avail pmf.PMF, cfg core.StageIIConfig) (float64, error) {
	af, err := dls.ByName("AF")
	if err != nil {
		return 0, err
	}
	iterMean := app.ExecTime[as.Type].Mean() / float64(app.TotalIters())
	s, err := sim.RunManyContext(context.Background(), sim.Config{
		SerialIters:      app.SerialIters,
		ParallelIters:    app.ParallelIters,
		Workers:          as.Procs,
		IterTime:         stats.NewNormal(iterMean, cfg.IterCV*iterMean),
		Avail:            availability.NewMarkov(avail, deadline/4, 0.5),
		Technique:        af,
		WeightsFromAvail: true,
		BestMaster:       true,
		Overhead:         cfg.Overhead,
		Seed:             cfg.Seed,
	}, cfg.Reps)
	if err != nil {
		return 0, err
	}
	return s.Mean(), nil
}
