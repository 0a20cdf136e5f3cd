package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"

	"cdsf/internal/availability"
	"cdsf/internal/dls"
	"cdsf/internal/pmf"
	"cdsf/internal/pool"
	"cdsf/internal/rng"
	"cdsf/internal/stats"
)

// Sample aggregates repeated simulation runs of the same configuration
// under different seeds. An empty Sample (no makespans) answers every
// statistic with 0 rather than NaN or a panic, so callers can aggregate
// unconditionally.
type Sample struct {
	// Makespans holds the per-run makespans in run order.
	Makespans []float64
	// MeanChunks is the average number of dispatched chunks per run.
	MeanChunks float64
	// MeanImbalance is the average load-imbalance metric per run.
	MeanImbalance float64

	// sorted caches the makespans in ascending order for Quantile and
	// PrLE; it is rebuilt whenever len(Makespans) changes, and Append
	// drops it. Entries must not be overwritten in place.
	sorted []float64
}

// Append adds makespans to the sample and invalidates the cached sort
// order. Prefer it over appending to Makespans directly: a direct
// append that restores a previous length (truncate, then refill)
// leaves the cache stale, and Quantile/PrLE silently answer over the
// old values.
func (s *Sample) Append(makespans ...float64) {
	s.Makespans = append(s.Makespans, makespans...)
	s.sorted = nil
}

// sortedMakespans returns the makespans in ascending order, sorting at
// most once per change in length.
func (s *Sample) sortedMakespans() []float64 {
	if len(s.sorted) != len(s.Makespans) {
		s.sorted = append(s.sorted[:0], s.Makespans...)
		sort.Float64s(s.sorted)
	}
	return s.sorted
}

// Mean returns the mean makespan, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.Makespans) == 0 {
		return 0
	}
	return stats.Mean(s.Makespans)
}

// StdDev returns the makespan standard deviation, or 0 for an empty
// sample.
func (s *Sample) StdDev() float64 {
	if len(s.Makespans) == 0 {
		return 0
	}
	return stats.StdDev(s.Makespans)
}

// Quantile returns the p-quantile of the makespans, or 0 for an empty
// sample. The sort order is cached across calls, so querying many
// quantiles of one sample costs one sort.
func (s *Sample) Quantile(p float64) float64 {
	if len(s.Makespans) == 0 {
		return 0
	}
	return stats.QuantileSorted(s.sortedMakespans(), p)
}

// Distribution summarizes the sample's makespans as a completion-time
// distribution under the selected PMF backend, for reporting paths
// that want distribution queries (quantiles, deadline probabilities)
// rather than raw order statistics. The sparse backend bins the
// makespans into an exact pulse PMF (mirroring the paper's sampled
// construction); the grid backend quantizes the same makespans onto a
// dense lattice of span/bins step. bins must be positive and the
// sample non-empty.
func (s *Sample) Distribution(backend pmf.Backend, bins int) (pmf.Dist, error) {
	if err := backend.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if bins <= 0 {
		return nil, fmt.Errorf("sim: %d distribution bins", bins)
	}
	if len(s.Makespans) == 0 {
		return nil, fmt.Errorf("sim: empty sample has no distribution")
	}
	if !backend.IsGrid() {
		return pmf.FromSamples(s.Makespans, bins), nil
	}
	ms := s.sortedMakespans()
	step := (ms[len(ms)-1] - ms[0]) / float64(bins)
	if step <= 0 {
		// Degenerate sample: every makespan equal; any positive step
		// yields the single-bin grid.
		step = math.Max(math.Abs(ms[0]), 1)
	}
	w := 1 / float64(len(ms))
	ps := make([]pmf.Pulse, len(ms))
	for i, m := range ms {
		ps[i] = pmf.Pulse{Value: m, Prob: w}
	}
	exact, err := pmf.New(ps)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return exact.ToGrid(step), nil
}

// PrLE returns the fraction of runs whose makespan was <= x — the
// empirical counterpart of Stage I's Pr(T <= Delta) — or 0 for an
// empty sample.
func (s *Sample) PrLE(x float64) float64 {
	ms := s.sortedMakespans()
	if len(ms) == 0 {
		return 0
	}
	n := sort.Search(len(ms), func(i int) bool { return ms[i] > x })
	return float64(n) / float64(len(ms))
}

// RunManyContext is RunMany under a context. Cancellation stops workers
// from claiming further repetitions, drains the in-flight ones (each of
// which also observes ctx through RunContext), and returns a
// partial-progress error wrapping ctx.Err() that reports how many
// repetitions had completed. Uncancelled seeded runs are bit-identical
// to RunMany for any worker count. It is RunArmsContext with the one
// arm cfg describes.
func RunManyContext(ctx context.Context, cfg Config, reps int) (*Sample, error) {
	out, err := RunArmsContext(ctx, cfg, []Arm{{Technique: cfg.Technique, Releases: cfg.Releases, TraceScope: cfg.TraceScope}}, reps)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// maxSharedCosts bounds, in iterations over all sweeps, the runs whose
// cost vector RunArmsContext draws once and shares between arms: at
// most 512 KiB of float64s per pool worker. Instance sizes come from
// clients, so larger runs draw as they dispatch.
const maxSharedCosts = 1 << 16

// sharedCostsFit reports whether cfg's runs are small enough to share
// one cost vector between arms.
func sharedCostsFit(cfg *Config) bool {
	n := cfg.SerialIters + cfg.ParallelIters
	return n <= maxSharedCosts && cfg.steps() <= maxSharedCosts/max(n, 1)
}

// Arm is one technique of a RunArmsContext call: what may differ
// between the techniques compared on one set of repetitions.
type Arm struct {
	// Technique schedules the arm's parallel loops.
	Technique dls.Technique
	// Releases optionally gives the arm per-repetition release times,
	// as Config.Releases does for RunManyContext: a DAG batch releases
	// each technique's application when that technique's predecessors
	// finished.
	Releases []float64
	// TraceScope prefixes the arm's lane names, as Config.TraceScope.
	TraceScope string
}

// RunArmsContext runs every arm for reps repetitions on common random
// numbers. Repetition i of every arm runs on the same seed, derived
// from cfg.Seed exactly as RunManyContext derives it, so all arms see
// the same availability trajectories (availability processes are
// functions of time) and the same cost for every iteration. Each arm's
// Sample is therefore bit-identical to RunManyContext with that arm's
// technique, releases and scope on cfg, while the comparison between
// arms is free of independent noise. cfg.Technique, cfg.Releases and
// cfg.TraceScope are ignored in favour of the arms'.
//
// Repetitions fan out over a worker pool (sequentially for group-scoped
// availability models), and a repetition runs its arms in order. Each
// pool worker keeps one run state (rng streams, availability
// processes, event queue, per-worker arrays, cost buffers, metric
// handles) for every run it makes, and the call keeps only each run's
// makespan, chunk count and imbalance, so a repetition allocates
// little beyond its schedulers. With more than one arm, a run of at
// most maxSharedCosts iterations has its cost vector drawn once per
// repetition, into the pool worker's buffer, instead of once per arm;
// a larger run has every arm draw its costs as it dispatches them, as
// a single run does, so memory stays O(workers) whatever the instance
// size. Cancellation behaves as in RunManyContext; the
// partial-progress count is the repetitions every arm completed.
func RunArmsContext(ctx context.Context, cfg Config, arms []Arm, reps int) ([]*Sample, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if reps <= 0 {
		return nil, fmt.Errorf("sim: %d repetitions", reps)
	}
	if len(arms) == 0 {
		return nil, fmt.Errorf("sim: no techniques to run")
	}
	for _, a := range arms {
		if a.Releases != nil && len(a.Releases) != reps {
			return nil, fmt.Errorf("sim: %d release times for %d repetitions", len(a.Releases), reps)
		}
		c := cfg
		c.Technique = a.Technique
		if err := c.validate(); err != nil {
			return nil, err
		}
	}
	runs := reps * len(arms)
	cfg.Obs.Metrics.Counter("sim.replications").Add(int64(runs))
	prog := cfg.Obs.Progress
	prog.PlanReps(runs)
	seeds := rng.New(cfg.Seed)
	runSeeds := make([]uint64, reps)
	for i := range runSeeds {
		runSeeds[i] = seeds.Uint64()
	}

	// outs[a*reps+i] is what the cell keeps of arm a's repetition i;
	// done[i] is set once every arm ran repetition i.
	type outcome struct {
		makespan, imbalance float64
		chunks              int
	}
	outs := make([]outcome, len(arms)*reps)
	done := make([]bool, reps)
	errs := make([]error, reps)
	share := len(arms) > 1 && sharedCostsFit(&cfg)
	// A group-scoped model's shared state would race across concurrent
	// repetitions, and below four repetitions a pool costs more than it
	// saves.
	workers := runtime.GOMAXPROCS(0)
	if _, groupScoped := cfg.Avail.(availability.GroupScoped); groupScoped || reps < 4 {
		workers = 1
	}
	states := make([]runState, workers)
	if err := pool.ForEach(ctx, workers, reps, func(w, i int) {
		s := &states[w]
		if share {
			seedStreams(runSeeds[i], &s.avail, &s.work)
			s.shared = fillCosts(&cfg, &s.work, s.shared)
		}
		for a, arm := range arms {
			c := cfg
			c.Technique = arm.Technique
			c.TraceScope = arm.TraceScope
			c.Seed = runSeeds[i]
			c.CollectChunks = false
			c.Releases = nil
			if share {
				c.costs = s.shared
			}
			if arm.Releases != nil {
				// Per-repetition release gate of a DAG batch: repetition i
				// starts when its predecessors' repetition i finished.
				c.Release = arm.Releases[i]
				c.gated = true
			}
			// Trace only the first repetition: one representative
			// timeline per arm instead of reps copies flooding the span
			// buffer.
			if i != 0 {
				c.Obs.Tracer = nil
			}
			r, err := s.run(ctx, &c)
			prog.RepDone()
			if err != nil {
				errs[i] = err
				return
			}
			outs[a*reps+i] = outcome{makespan: r.Makespan, imbalance: r.Imbalance, chunks: r.NumChunks}
		}
		done[i] = true
	}); err != nil {
		n := 0
		for _, d := range done {
			if d {
				n++
			}
		}
		return nil, fmt.Errorf("sim: canceled after %d/%d repetitions: %w", n, reps, err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]*Sample, len(arms))
	for a := range arms {
		s := &Sample{Makespans: make([]float64, 0, reps)}
		sumChunks, sumImb := 0.0, 0.0
		for _, o := range outs[a*reps : (a+1)*reps] {
			s.Append(o.makespan)
			sumChunks += float64(o.chunks)
			sumImb += o.imbalance
		}
		s.MeanChunks = sumChunks / float64(reps)
		s.MeanImbalance = sumImb / float64(reps)
		out[a] = s
	}
	return out, nil
}
