// Command ratool explores Stage-I resource allocations on the paper's
// instance (or a scaled synthetic one): it runs one or all registered
// heuristics and reports the allocation, phi_1, and expected completion
// times, optionally comparing against the exhaustive optimum.
//
// Usage:
//
//	ratool                       # all heuristics on the paper instance
//	ratool -heuristic tabu       # one heuristic
//	ratool -apps 6 -type1 8 -type2 16 -deadline 3000 -seed 3
//	ratool -timeout 30s          # bound the whole run
//
// With -apps > 0 a synthetic instance is generated: the scale study's
// draw (experiments.SyntheticBatch) of random mean execution times per
// type and random serial fractions, under the -deadline given.
// SIGINT/SIGTERM (and -timeout) cancel the search; the partial run
// still flushes -metrics and -trace before exiting nonzero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"time"

	"cdsf/internal/config"
	"cdsf/internal/experiments"
	"cdsf/internal/ra"
	"cdsf/internal/report"
	"cdsf/internal/robustness"
	"cdsf/internal/runner"
	"cdsf/internal/sysmodel"
)

func main() { runner.Main("ratool", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ratool", flag.ContinueOnError)
	fs.SetOutput(stderr)
	heuristic := fs.String("heuristic", "", "run only this heuristic (default: all)")
	apps := fs.Int("apps", 0, "generate a synthetic instance with this many applications (0: paper instance)")
	type1 := fs.Int("type1", 4, "processors of type 1 (synthetic instance)")
	type2 := fs.Int("type2", 8, "processors of type 2 (synthetic instance)")
	deadline := fs.Float64("deadline", experiments.Deadline, "common deadline")
	seed := fs.Uint64("seed", 1, "synthetic instance seed")
	exhaustiveRef := fs.Bool("optimum", true, "also compute the exhaustive optimum for reference")
	instance := fs.String("instance", "", "JSON instance file (overrides -apps and the paper instance)")
	rf := runner.RegisterWorkerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return rf.Run(ctx, "ratool", stderr, func(ctx context.Context, s *runner.Session) error {
		var prob *ra.Problem
		switch {
		case *instance != "":
			inst, err := config.LoadInstance(*instance)
			if err != nil {
				return err
			}
			sys, batch, d, err := config.Build(inst)
			if err != nil {
				return err
			}
			edges, err := config.BuildEdges(inst)
			if err != nil {
				return err
			}
			prob = &ra.Problem{Sys: sys, Batch: batch, Deadline: d, Edges: edges}
		case *apps > 0:
			sys, batch := experiments.SyntheticBatch(*seed, *apps, *type1, *type2)
			prob = &ra.Problem{Sys: sys, Batch: batch, Deadline: *deadline}
		default:
			f := experiments.Framework()
			prob = &ra.Problem{Sys: f.Sys, Batch: f.Batch, Deadline: *deadline}
		}

		prob.Backend = rf.PMF
		prob.Obs = s.Obs
		prob.Cache = s.Cache

		names := ra.Names()
		if *heuristic != "" {
			names = []string{*heuristic}
		} else if len(prob.Edges) > 0 {
			// Every DAG objective evaluation composes completion PMFs
			// along the edges, so the evaluation-hungry searchers
			// (exhaustive, tabu) take seconds to minutes on
			// precedence-constrained instances. The default table
			// sticks to the constructive and list schedulers; any
			// searcher still runs when named explicitly via -heuristic.
			expensive := map[string]bool{"exhaustive": true, "tabu": true}
			kept := names[:0]
			for _, n := range names {
				if !expensive[n] {
					kept = append(kept, n)
				}
			}
			names = kept
			fmt.Fprintln(stderr, "ratool: DAG instance — skipping the search heuristics by default (name one with -heuristic to run it)")
		}

		// Build the evaluation table once up front; every heuristic below
		// shares it.
		if err := prob.PrecomputeContext(ctx, rf.Workers); err != nil {
			return err
		}

		var optPhi float64
		haveOpt := false
		if *exhaustiveRef {
			// On an independent batch exhaustive is a branch-and-bound
			// and always affordable. On a DAG it scans the whole space
			// and composes completion PMFs per evaluation, so the
			// reference runs only on small DAG spaces.
			const dagLimit = 1_000
			if len(prob.Edges) == 0 || sysmodel.CountAllocations(prob.Sys, prob.Batch, dagLimit) <= dagLimit {
				al, err := (&ra.Exhaustive{Workers: rf.Workers}).AllocateContext(ctx, prob)
				if err != nil {
					if ctxErr := ctx.Err(); ctxErr != nil {
						return err
					}
				} else {
					// Evaluated as the rows are.
					res, err := robustness.EvaluateStageIDAG(prob.Sys, prob.Batch, prob.Edges, al, prob.Deadline)
					if err != nil {
						return err
					}
					optPhi, haveOpt = res.Phi1, true
				}
			} else {
				fmt.Fprintf(stderr, "ratool: skipping exhaustive reference (more than %d allocations)\n", dagLimit)
			}
		}

		headers := []string{"Heuristic", "phi1 (%)", "E[makespan]", "Allocation", "Time"}
		if haveOpt {
			headers = append(headers, "Gap to optimum (pp)")
		}
		tbl := report.NewTable(fmt.Sprintf("Stage-I heuristics (deadline %.0f, %d apps, %d procs)",
			prob.Deadline, len(prob.Batch), prob.Sys.TotalProcessors()), headers...)

		for _, name := range names {
			h, err := ra.ByName(name)
			if err != nil {
				return err
			}
			ra.SetWorkers(h, rf.Workers)
			t0 := time.Now()
			al, err := ra.SolveContext(ctx, h, prob)
			dt := time.Since(t0)
			if err != nil {
				// A cancelled search aborts the whole table; a heuristic
				// that merely failed on this instance gets an error row.
				if ctxErr := ctx.Err(); ctxErr != nil {
					return err
				}
				tbl.AddRow(name, "error: "+err.Error())
				continue
			}
			res, err := robustness.EvaluateStageIDAG(prob.Sys, prob.Batch, prob.Edges, al, prob.Deadline)
			if err != nil {
				return err
			}
			maxExp := 0.0
			for _, e := range res.ExpectedTimes {
				if e > maxExp {
					maxExp = e
				}
			}
			row := []string{
				name,
				fmt.Sprintf("%.2f", res.Phi1*100),
				fmt.Sprintf("%.0f", maxExp),
				al.String(),
				dt.Round(time.Millisecond).String(),
			}
			if haveOpt {
				gap := optPhi - res.Phi1
				if math.Abs(gap) <= ra.PhiTol {
					// A phi_1 within exhaustive's tie tolerance of the
					// optimum, on either side, ties it.
					gap = 0
				}
				row = append(row, fmt.Sprintf("%.2f", gap*100))
			}
			tbl.AddRow(row...)
		}
		return tbl.Render(stdout)
	})
}
