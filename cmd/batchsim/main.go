// Command batchsim simulates the Stage-I operational substrate: a
// stream of application instances arriving at a resource manager that
// groups them into batches, allocates each batch with a Stage-I
// heuristic, and executes batch after batch — either with the analytic
// Stage-I estimate or the full Stage-II simulator.
//
// Usage:
//
//	batchsim -jobs 100 -rate 0.003 -heuristic greedy -deadline 3250
//	batchsim -executor sim -tech AF -reps 10
//	batchsim -timeout 1m
//
// SIGINT/SIGTERM (and -timeout) cancel the batch stream between jobs;
// the partial run still flushes -metrics and -trace before exiting
// nonzero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"cdsf/internal/batch"
	"cdsf/internal/core"
	"cdsf/internal/dls"
	"cdsf/internal/experiments"
	"cdsf/internal/ra"
	"cdsf/internal/report"
	"cdsf/internal/runner"
	"cdsf/internal/stats"
)

func main() { runner.Main("batchsim", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("batchsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jobs := fs.Int("jobs", 60, "number of application arrivals to simulate")
	rate := fs.Float64("rate", 1.0/1000, "arrival rate (jobs per time unit; Poisson)")
	heuristic := fs.String("heuristic", "greedy", "stage-I heuristic for each batch")
	deadline := fs.Float64("deadline", experiments.Deadline, "per-batch deadline")
	maxBatch := fs.Int("maxbatch", 3, "maximum applications per batch (0: unbounded)")
	executor := fs.String("executor", "expected", "batch executor: expected | sim")
	tech := fs.String("tech", "AF", "DLS technique for the sim executor")
	reps := fs.Int("reps", 10, "sim-executor repetitions per application")
	seed := fs.Uint64("seed", 1, "simulation seed")
	rf := runner.RegisterWorkerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return rf.Run(ctx, "batchsim", stderr, func(ctx context.Context, s *runner.Session) error {
		h, err := ra.ByName(*heuristic)
		if err != nil {
			return err
		}
		ra.SetWorkers(h, rf.Workers)
		if *rate <= 0 {
			return fmt.Errorf("non-positive arrival rate %v", *rate)
		}

		cfg := batch.Config{
			Sys: experiments.ReferenceSystem(),
			Arrivals: batch.ArrivalProcess{
				Interarrival: stats.NewExponential(*rate),
				Templates:    experiments.PaperBatch(experiments.DefaultPulses),
			},
			Heuristic: h,
			Deadline:  *deadline,
			MaxBatch:  *maxBatch,
			Jobs:      *jobs,
			Seed:      *seed,
			Backend:   rf.PMF,
			Cache:     s.Cache,
			Obs:       s.Obs,
		}
		switch *executor {
		case "expected":
			// Default analytic executor.
		case "sim":
			dt, err := dls.ByName(*tech)
			if err != nil {
				return err
			}
			simCfg := core.DefaultStageII(*deadline, *seed)
			simCfg.PMFBackend = rf.PMF
			simCfg.Reps = *reps
			simCfg.Obs = s.Obs
			simCfg.Cache = s.Cache
			cfg.Executor = core.SimExecutor{Technique: dt, Config: simCfg}
		default:
			return fmt.Errorf("unknown executor %q (want expected or sim)", *executor)
		}

		res, err := batch.RunContext(ctx, cfg)
		if err != nil {
			return err
		}

		t := report.NewTable(
			fmt.Sprintf("batchsim: %d jobs, rate %g, heuristic %s, executor %s", *jobs, *rate, *heuristic, *executor),
			"Batch", "Jobs", "Start", "Makespan", "phi1 (%)", "Met deadline")
		for _, b := range res.Batches {
			t.AddRow(
				fmt.Sprintf("%d", b.Index),
				fmt.Sprintf("%d", b.Jobs),
				fmt.Sprintf("%.0f", b.Start),
				fmt.Sprintf("%.0f", b.Makespan),
				fmt.Sprintf("%.1f", b.Phi1*100),
				fmt.Sprintf("%v", b.MetDeadline))
		}
		if err := t.Render(stdout); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\njobs %d  batches %d  mean batch size %.2f  mean wait %.0f  deadline rate %.0f%%  total %.0f\n",
			len(res.Jobs), len(res.Batches), res.MeanBatchSize, res.MeanWait,
			res.DeadlineRate*100, res.MakespanTotal)
		return nil
	})
}
