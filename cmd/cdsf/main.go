// Command cdsf runs the combined dual-stage framework end to end: a
// Stage-I heuristic maps the paper's application batch onto the
// heterogeneous system, and Stage-II simulations evaluate the chosen
// DLS technique set across the runtime availability cases, reporting
// per-case execution times, the best technique per application, and the
// system robustness tuple (rho1, rho2).
//
// Usage:
//
//	cdsf                            # paper scenario 4 (robust-robust)
//	cdsf -scenario 1                # any of the paper's 4 scenarios
//	cdsf -im tabu -ras FAC,AF       # custom stage policies
//	cdsf -reps 100 -seed 7          # tighter stage-II estimates
//	cdsf -timeout 1m                # bound the whole run
//
// SIGINT/SIGTERM (and -timeout) cancel both stages; the partial run
// still flushes -metrics and -trace before exiting nonzero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"cdsf/internal/config"
	"cdsf/internal/core"
	"cdsf/internal/experiments"
	"cdsf/internal/ra"
	"cdsf/internal/report"
	"cdsf/internal/runner"
)

func main() { runner.Main("cdsf", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cdsf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.Int("scenario", 4, "paper scenario 1-4 (ignored when -im or -ras given)")
	im := fs.String("im", "", "stage-I heuristic (overrides -scenario)")
	ras := fs.String("ras", "", "comma-separated stage-II techniques (overrides -scenario)")
	reps := fs.Int("reps", 0, "stage-II repetitions (0: default)")
	seed := fs.Uint64("seed", 42, "stage-II seed")
	instance := fs.String("instance", "", "JSON instance file (default: the embedded paper example)")
	rf := runner.RegisterWorkerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return rf.Run(ctx, "cdsf", stderr, func(ctx context.Context, s *runner.Session) error {
		var f *core.Framework
		var cases []core.Case
		if *instance == "" {
			f = experiments.Framework()
			cases = experiments.Cases()
		} else {
			inst, err := config.LoadInstance(*instance)
			if err != nil {
				return err
			}
			sys, batch, deadline, err := config.Build(inst)
			if err != nil {
				return err
			}
			edges, err := config.BuildEdges(inst)
			if err != nil {
				return err
			}
			declared, err := config.BuildCases(inst)
			if err != nil {
				return err
			}
			f = &core.Framework{Sys: sys, Batch: batch, Deadline: deadline, Edges: edges}
			if len(declared) > 0 {
				for _, c := range declared {
					cases = append(cases, core.Case{Name: c.Name, Avail: c.Avail})
				}
			} else {
				cases = core.FallbackCases(sys)
			}
		}
		cfg := core.DefaultStageII(f.Deadline, *seed)
		cfg.PMFBackend = rf.PMF
		cfg.Obs = s.Obs
		cfg.Cache = s.Cache
		if *reps > 0 {
			cfg.Reps = *reps
		}
		sc, err := buildScenario(*scenario, *im, *ras)
		if err != nil {
			return err
		}
		ra.SetWorkers(sc.IM, rf.Workers)
		res, err := f.RunScenarioContext(ctx, sc, cases, cfg)
		if err != nil {
			return err
		}

		fmt.Fprintf(stdout, "Scenario: %s\n\n", res.Scenario)
		s1 := report.NewTable("Stage I (initial mapping)",
			"App", "Proc type", "# Procs", "Pr(T<=deadline) (%)", "E[T]")
		for i, as := range res.StageI.Alloc {
			s1.AddRow(f.Batch[i].Name,
				fmt.Sprintf("%d", as.Type+1),
				fmt.Sprintf("%d", as.Procs),
				fmt.Sprintf("%.2f", res.StageI.PerApp[i]*100),
				fmt.Sprintf("%.2f", res.StageI.ExpectedTimes[i]))
		}
		if err := s1.Render(stdout); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "phi1 = %.2f%%\n\n", res.StageI.Phi1*100)

		for _, c := range res.Cases {
			headers := []string{"App"}
			for _, o := range c.PerApp[0] {
				headers = append(headers, o.Technique)
			}
			headers = append(headers, "Best")
			t := report.NewTable(fmt.Sprintf("Stage II — %s (availability decrease %.2f%%)",
				c.Case.Name, c.Decrease*100), headers...)
			for i, outs := range c.PerApp {
				row := []string{f.Batch[i].Name}
				for _, o := range outs {
					cell := fmt.Sprintf("%.0f", o.MeanTime)
					if !o.Meets {
						cell += " (!)"
					}
					row = append(row, cell)
				}
				best := c.Best[i]
				if best == "" {
					best = "-"
				}
				row = append(row, best)
				t.AddRow(row...)
			}
			if err := t.Render(stdout); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}

		tuple := core.SystemRobustness(res)
		fmt.Fprintf(stdout, "System robustness (rho1, rho2) = %s\n", tuple)
		return nil
	})
}

// buildScenario adapts the CLI's comma-separated -ras flag to
// core.BuildScenario, the scenario resolver shared with the cdsfd
// scheduling service, so flag names and wire names cannot drift.
func buildScenario(scenario int, im, ras string) (core.Scenario, error) {
	var techs []string
	if ras != "" {
		techs = strings.Split(ras, ",")
	}
	return core.BuildScenario(scenario, im, techs)
}
