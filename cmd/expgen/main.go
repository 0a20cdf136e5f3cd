// Command expgen regenerates every table and figure of the paper's
// evaluation section.
//
// Usage:
//
//	expgen                 # everything
//	expgen -table 4        # a single table (1-6)
//	expgen -figure 5       # a single figure (3-6)
//	expgen -seed 7 -csv    # change the Stage-II seed; CSV output
//	expgen -dag            # precedence-constrained topology study
//	expgen -timeout 2m     # bound the whole generation run
//
// SIGINT/SIGTERM (and -timeout) cancel the generation; the partial run
// still flushes -metrics and -trace before exiting nonzero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"cdsf/internal/experiments"
	"cdsf/internal/report"
	"cdsf/internal/runner"
)

func main() { runner.Main("expgen", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("expgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 0, "regenerate only this table (1-6)")
	figure := fs.Int("figure", 0, "regenerate only this figure (3-6)")
	seed := fs.Uint64("seed", 42, "seed for the Stage-II simulations")
	csv := fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
	sensitivity := fs.Bool("sensitivity", false, "emit the sensitivity/ablation studies instead of the paper tables")
	scale := fs.Bool("scale", false, "run the future-work probabilistic scale study instead of the paper tables")
	dag := fs.Bool("dag", false, "run the precedence-constrained (DAG) topology study instead of the paper tables")
	reps := fs.Int("reps", 20, "stage-II repetitions for the sensitivity studies")
	rf := runner.RegisterWorkerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Only the -scale and -dag studies take the session's scope
	// (-metrics, -trace, -debug-addr); the paper tables, figures and
	// sensitivity studies build their own uninstrumented configs and
	// report only the pmf kernel counters.
	return rf.Run(ctx, "expgen", stderr, func(ctx context.Context, s *runner.Session) error {
		switch {
		case *sensitivity:
			return runSensitivity(ctx, stdout, *seed, *reps, *csv)
		case *scale:
			return runScale(ctx, stdout, *seed, rf, s, *csv)
		case *dag:
			return runDAG(ctx, stdout, *seed, *reps, rf, s, *csv)
		default:
			return runTables(ctx, stdout, *table, *figure, *seed, *csv)
		}
	})
}

func runScale(ctx context.Context, stdout io.Writer, seed uint64, rf *runner.Flags, s *runner.Session, csv bool) error {
	cfg := experiments.DefaultScaleConfig(seed)
	cfg.Workers = rf.Workers
	cfg.Backend = rf.PMF
	cfg.Cache = s.Cache
	cfg.Obs = s.Obs
	t, err := experiments.RunScaleStudyContext(ctx, cfg)
	if err != nil {
		return err
	}
	if csv {
		return t.CSV(stdout)
	}
	return t.Render(stdout)
}

func runDAG(ctx context.Context, stdout io.Writer, seed uint64, reps int, rf *runner.Flags, s *runner.Session, csv bool) error {
	cfg := experiments.DefaultDAGStudyConfig(seed)
	cfg.Reps = reps
	cfg.Workers = rf.Workers
	cfg.Backend = rf.PMF
	cfg.Obs = s.Obs
	t, err := experiments.RunDAGStudyContext(ctx, cfg)
	if err != nil {
		return err
	}
	if csv {
		return t.CSV(stdout)
	}
	return t.Render(stdout)
}

func runSensitivity(ctx context.Context, stdout io.Writer, seed uint64, reps int, csv bool) error {
	// The individual studies predate the context plumbing; cancellation
	// is honored at study boundaries.
	emit := func(t *report.Table, err error) error {
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		defer fmt.Fprintln(stdout)
		if csv {
			return t.CSV(stdout)
		}
		return t.Render(stdout)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := emit(experiments.GenerateGranularitySensitivity()); err != nil {
		return err
	}
	if err := emit(experiments.GenerateDeadlineCurve()); err != nil {
		return err
	}
	if err := emit(experiments.GenerateToleranceCurve()); err != nil {
		return err
	}
	if err := emit(experiments.GenerateOverheadSensitivity(seed, reps)); err != nil {
		return err
	}
	if err := emit(experiments.GenerateCVSensitivity(seed, reps)); err != nil {
		return err
	}
	if err := emit(experiments.GenerateModelSensitivity(seed, reps)); err != nil {
		return err
	}
	if err := emit(experiments.GenerateCorrelationStudy(seed, reps)); err != nil {
		return err
	}
	if err := emit(experiments.GenerateDistributionSensitivity(seed, reps)); err != nil {
		return err
	}
	if err := emit(experiments.GenerateProfileSensitivity(seed, reps)); err != nil {
		return err
	}
	if err := emit(experiments.GenerateBatchPolicyStudy(seed, 60)); err != nil {
		return err
	}
	return emit(experiments.RunExtendedTechniqueStudy(seed, reps))
}

func runTables(ctx context.Context, stdout io.Writer, table, figure int, seed uint64, csv bool) error {
	emit := func(t *report.Table) error {
		defer fmt.Fprintln(stdout)
		if csv {
			return t.CSV(stdout)
		}
		return t.Render(stdout)
	}

	wantTable := func(n int) bool { return (table == 0 && figure == 0) || table == n }
	wantFigure := func(n int) bool { return (table == 0 && figure == 0) || figure == n }

	if wantTable(1) {
		if err := emit(experiments.GenerateTableI()); err != nil {
			return err
		}
	}
	if wantTable(2) {
		if err := emit(experiments.GenerateTableII()); err != nil {
			return err
		}
	}
	if wantTable(3) {
		if err := emit(experiments.GenerateTableIII()); err != nil {
			return err
		}
	}
	if wantTable(4) {
		t, err := experiments.GenerateTableIVContext(ctx)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if wantTable(5) {
		t, err := experiments.GenerateTableVContext(ctx)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	for n := 3; n <= 6; n++ {
		if !wantFigure(n) {
			continue
		}
		c, err := experiments.GenerateFigureContext(ctx, n, seed)
		if err != nil {
			return err
		}
		if err := c.Render(stdout); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if wantTable(6) {
		t, tuple, err := experiments.GenerateTableVIContext(ctx, seed)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "System robustness (rho1, rho2) = %s  [paper: (74.5%%, 30.77%%)]\n", tuple)
	}
	return nil
}
