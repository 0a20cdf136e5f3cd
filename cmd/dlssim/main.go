// Command dlssim runs the Stage-II loop-scheduling simulator for one
// workload and prints per-technique makespans, chunk counts, and load
// imbalance.
//
// Usage:
//
//	dlssim -iters 4096 -serial 200 -workers 8 -mean 2.0 -cv 0.3 \
//	       -avail 0.25:0.25,0.5:0.25,1:0.5 -model markov -interval 800 \
//	       -tech FAC,WF,AWF-B,AF -reps 50 -deadline 3250
//
// The -avail flag takes a comma-separated availability PMF of
// value:probability pulses (fractions). Note -workers is the simulated
// group size, not a host worker-pool bound. The shared -cache flag is
// accepted but has no effect here: dlssim drives the chunk-level
// simulator directly and never builds the Stage-I evaluation tables or
// result documents the solve cache stores. SIGINT/SIGTERM (and
// -timeout) cancel the simulations; the partial run still flushes
// -metrics and -trace before exiting nonzero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"cdsf/internal/availability"
	"cdsf/internal/dls"
	"cdsf/internal/pmf"
	"cdsf/internal/report"
	"cdsf/internal/runner"
	"cdsf/internal/sim"
	"cdsf/internal/stats"
	"cdsf/internal/tracing"
)

func main() { runner.Main("dlssim", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dlssim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	iters := fs.Int("iters", 4096, "parallel loop iterations")
	serial := fs.Int("serial", 0, "serial iterations executed on the master first")
	workers := fs.Int("workers", 8, "number of processors in the group")
	mean := fs.Float64("mean", 1.0, "mean per-iteration execution time (dedicated)")
	cv := fs.Float64("cv", 0.3, "coefficient of variation of iteration times")
	dist := fs.String("dist", "normal", "iteration-time distribution: normal, lognormal, gamma, exponential")
	profile := fs.String("profile", "flat", "iteration-cost profile: flat, increasing, decreasing, peaked, alternating")
	availSpec := fs.String("avail", "1:1", "availability PMF as value:prob,value:prob,...")
	model := fs.String("model", "markov", "availability model: static, redraw, markov")
	interval := fs.Float64("interval", 800, "availability model interval (redraw, markov)")
	persistence := fs.Float64("persistence", 0.5, "markov persistence in [0,1)")
	techs := fs.String("tech", "", "comma-separated techniques (default: all registered)")
	overhead := fs.Float64("overhead", 1, "per-chunk scheduling overhead")
	reps := fs.Int("reps", 30, "simulation repetitions per technique")
	seed := fs.Uint64("seed", 1, "base seed")
	deadline := fs.Float64("deadline", 0, "optional deadline for Pr(T<=deadline) reporting")
	gantt := fs.Bool("gantt", false, "render an ASCII Gantt chart of one run per technique")
	chunksOut := fs.String("chunks", "", "write one run's chunk log per technique to this CSV file prefix")
	hist := fs.Bool("hist", false, "render an ASCII histogram of each technique's makespan sample")
	schedule := fs.Bool("schedule", false, "print each technique's idealized dispatch schedule statistics")
	rf := runner.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return rf.Run(ctx, "dlssim", stderr, func(ctx context.Context, s *runner.Session) error {
		return simulate(ctx, s, stdout,
			*iters, *serial, *workers, *mean, *cv, *dist, *profile, *availSpec, *model,
			*interval, *persistence, *techs, *overhead, *reps, *seed, *deadline,
			*gantt, *chunksOut, *hist, *schedule, rf.PMF)
	})
}

func parseAvail(spec string) (pmf.PMF, error) {
	var pulses []pmf.Pulse
	for _, part := range strings.Split(spec, ",") {
		vp := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(vp) != 2 {
			return pmf.PMF{}, fmt.Errorf("bad pulse %q (want value:prob)", part)
		}
		v, err := strconv.ParseFloat(vp[0], 64)
		if err != nil {
			return pmf.PMF{}, fmt.Errorf("bad pulse value %q: %v", vp[0], err)
		}
		p, err := strconv.ParseFloat(vp[1], 64)
		if err != nil {
			return pmf.PMF{}, fmt.Errorf("bad pulse probability %q: %v", vp[1], err)
		}
		pulses = append(pulses, pmf.Pulse{Value: v, Prob: p})
	}
	return pmf.New(pulses)
}

func simulate(ctx context.Context, s *runner.Session, stdout io.Writer,
	iters, serial, workers int, mean, cv float64, distName, profileName, availSpec, model string,
	interval, persistence float64, techs string, overhead float64, reps int,
	seed uint64, deadline float64, gantt bool, chunksOut string, hist, schedule bool,
	backend pmf.Backend) error {

	reg, tr := s.Obs.Metrics, s.Obs.Tracer

	iterDist, err := buildDist(distName, mean, cv)
	if err != nil {
		return err
	}
	prof, err := sim.ProfileByName(profileName)
	if err != nil {
		return err
	}

	availPMF, err := parseAvail(availSpec)
	if err != nil {
		return err
	}
	var availModel availability.Model
	switch model {
	case "static":
		availModel = availability.Static{PMF: availPMF}
	case "redraw":
		availModel = availability.Redraw{PMF: availPMF, Interval: interval}
	case "markov":
		availModel = availability.NewMarkov(availPMF, interval, persistence)
	default:
		return fmt.Errorf("unknown availability model %q", model)
	}

	var techniques []dls.Technique
	if techs == "" {
		techniques = dls.All()
	} else {
		for _, name := range strings.Split(techs, ",") {
			t, err := dls.ByName(name)
			if err != nil {
				return err
			}
			techniques = append(techniques, t)
		}
	}

	if schedule {
		analyses, err := dls.CompareSchedules(techniques, iters, workers, overhead, mean, math.Sqrt(iterDist.Var()))
		if err != nil {
			return err
		}
		st := report.NewTable(fmt.Sprintf("Idealized dispatch schedules: %d iters, %d workers, h=%.2g",
			iters, workers, overhead),
			"Technique", "Chunks", "First", "Last", "Mean chunk", "Overhead ratio")
		for _, a := range analyses {
			st.AddRow(a.Technique,
				fmt.Sprintf("%d", a.Chunks),
				fmt.Sprintf("%d", a.FirstChunk),
				fmt.Sprintf("%d", a.LastChunk),
				fmt.Sprintf("%.1f", a.MeanChunk),
				fmt.Sprintf("%.4f", a.OverheadRatio))
		}
		if err := st.Render(stdout); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}

	var histCharts []*report.HistogramChart
	headers := []string{"Technique", "Mean", "StdDev", "P90", "Chunks", "Imbalance"}
	if deadline > 0 {
		headers = append(headers, fmt.Sprintf("Pr(T<=%.0f)", deadline))
	}
	tbl := report.NewTable(fmt.Sprintf("dlssim: %d+%d iters, %d workers, avail %s (%s), overhead %.2g",
		serial, iters, workers, availSpec, availModel.Name(), overhead), headers...)

	// Every technique runs on the same seed and shares each repetition's
	// draws, so the rows compare the techniques on common random
	// numbers.
	arms := make([]sim.Arm, len(techniques))
	for i, tech := range techniques {
		arms[i] = sim.Arm{Technique: tech, TraceScope: strings.ToLower(tech.Name) + "/mc"}
	}
	mcRegion := tr.Begin("dlssim", fmt.Sprintf("%d techniques x %d", len(techniques), reps), "montecarlo")
	samples, err := sim.RunArmsContext(ctx, sim.Config{
		SerialIters:      serial,
		ParallelIters:    iters,
		Workers:          workers,
		IterTime:         iterDist,
		IterProfile:      prof,
		Avail:            availModel,
		WeightsFromAvail: true,
		BestMaster:       true,
		Overhead:         overhead,
		Seed:             seed,
		Obs:              s.Obs,
	}, arms, reps)
	mcRegion.End()
	if err != nil {
		return err
	}
	for i, tech := range techniques {
		sample := samples[i]
		row := []string{
			tech.Name,
			fmt.Sprintf("%.1f", sample.Mean()),
			fmt.Sprintf("%.1f", sample.StdDev()),
			fmt.Sprintf("%.1f", sample.Quantile(0.9)),
			fmt.Sprintf("%.1f", sample.MeanChunks),
			fmt.Sprintf("%.3f", sample.MeanImbalance),
		}
		if deadline > 0 {
			prle := sample.PrLE(deadline)
			if backend.IsGrid() {
				// The grid backend answers the deadline probability off a
				// quantized completion distribution instead of the exact
				// order statistic, matching Stage I's -pmf=grid estimates.
				d, err := sample.Distribution(backend, 64)
				if err != nil {
					return err
				}
				prle = d.PrLE(deadline)
				if g, ok := d.(*pmf.Grid); ok {
					g.Release()
				}
			}
			row = append(row, fmt.Sprintf("%.2f", prle))
		}
		tbl.AddRow(row...)
		if hist {
			h := report.NewHistogramChart(fmt.Sprintf("\n%s makespan distribution (%d runs)", tech.Name, reps), sample.Makespans)
			h.MarkLabel = "deadline"
			h.MarkValue = deadline
			histCharts = append(histCharts, h)
		}
	}
	if err := tbl.Render(stdout); err != nil {
		return err
	}
	for _, h := range histCharts {
		if err := h.Render(stdout); err != nil {
			return err
		}
	}
	// The chunk-level pass also runs when metrics or a trace are
	// requested, so the per-worker summaries land in the -metrics
	// output and the per-worker simulated-time lanes in the -trace
	// output.
	if !gantt && chunksOut == "" && reg == nil && tr == nil {
		return nil
	}
	for _, tech := range techniques {
		cfg := sim.Config{
			SerialIters:      serial,
			ParallelIters:    iters,
			Workers:          workers,
			IterTime:         iterDist,
			IterProfile:      prof,
			Avail:            availModel,
			Technique:        tech,
			WeightsFromAvail: true,
			BestMaster:       true,
			Overhead:         overhead,
			Seed:             seed,
			CollectChunks:    true,
			Obs:              s.Obs,
			TraceScope:       strings.ToLower(tech.Name),
		}
		r, err := sim.RunContext(ctx, cfg)
		if err != nil {
			return err
		}
		if chunksOut != "" {
			path := fmt.Sprintf("%s-%s.csv", chunksOut, strings.ToLower(tech.Name))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := writeCSV(f, r.Chunks); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
		if !gantt && reg == nil {
			continue
		}
		a, err := tracing.Analyze(r.Chunks, workers, overhead)
		if err != nil {
			return err
		}
		a.Record(reg, "trace."+strings.ToLower(tech.Name))
		if !gantt {
			continue
		}
		g := tracing.BuildGantt(fmt.Sprintf("\n%s: one run, makespan %.1f, %d chunks, mean chunk %.1f, busy efficiency %.0f%%",
			tech.Name, r.Makespan, r.NumChunks, a.MeanChunkSize, a.BusyEfficiency*100), r.Chunks, workers, overhead)
		if err := g.Render(stdout); err != nil {
			return err
		}
	}
	return nil
}

// writeCSV emits a chunk log as CSV (worker, start, size, elapsed),
// sorted by start time, for external tooling. Start and Elapsed use the
// shortest decimal representation that parses back to the same
// float64, so a re-imported log agrees bit for bit with the run.
func writeCSV(w io.Writer, chunks []tracing.Chunk) error {
	sorted := append([]tracing.Chunk(nil), chunks...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].Worker < sorted[j].Worker
	})
	if _, err := io.WriteString(w, "worker,start,size,elapsed\n"); err != nil {
		return err
	}
	for _, c := range sorted {
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%s\n", c.Worker,
			strconv.FormatFloat(c.Start, 'g', -1, 64), c.Size,
			strconv.FormatFloat(c.Elapsed, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return nil
}

// buildDist constructs the iteration-time distribution from its family
// name, mean, and coefficient of variation.
func buildDist(name string, mean, cv float64) (stats.Dist, error) {
	if mean <= 0 {
		return nil, fmt.Errorf("non-positive mean %v", mean)
	}
	switch name {
	case "normal":
		if cv <= 0 {
			return nil, fmt.Errorf("normal distribution needs cv > 0, got %v", cv)
		}
		return stats.NewNormal(mean, cv*mean), nil
	case "lognormal":
		if cv <= 0 {
			return nil, fmt.Errorf("lognormal distribution needs cv > 0, got %v", cv)
		}
		return stats.LogNormalFromMoments(mean, cv*mean), nil
	case "gamma":
		if cv <= 0 {
			return nil, fmt.Errorf("gamma distribution needs cv > 0, got %v", cv)
		}
		return stats.GammaFromMoments(mean, cv*mean), nil
	case "exponential":
		return stats.NewExponential(1 / mean), nil
	default:
		return nil, fmt.Errorf("unknown distribution %q (want normal, lognormal, gamma, exponential)", name)
	}
}
