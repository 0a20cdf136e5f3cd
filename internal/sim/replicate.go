package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"cdsf/internal/availability"
	"cdsf/internal/pmf"
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
	// PrLE; it is rebuilt whenever len(Makespans) changes. Callers that
	// overwrite existing entries in place (without changing the length)
	// must call Invalidate afterwards.
	sorted []float64
}

// Invalidate drops the cached sort order used by Quantile and PrLE.
// Use Append to add makespans — it invalidates internally; direct
// writes to Makespans (in-place edits, or a truncate-and-refill that
// lands on the same length, which the stale-length heuristic below
// cannot see) must call Invalidate afterwards.
func (s *Sample) Invalidate() { s.sorted = nil }

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
// to RunMany for any worker count.
func RunManyContext(ctx context.Context, cfg Config, reps int) (*Sample, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if reps <= 0 {
		return nil, fmt.Errorf("sim: %d repetitions", reps)
	}
	if cfg.Releases != nil && len(cfg.Releases) != reps {
		return nil, fmt.Errorf("sim: %d release times for %d repetitions", len(cfg.Releases), reps)
	}
	cfg.Obs.Metrics.Counter("sim.replications").Add(int64(reps))
	prog := cfg.Obs.Progress
	prog.PlanReps(reps)
	seeds := rng.New(cfg.Seed)
	runSeeds := make([]uint64, reps)
	for i := range runSeeds {
		runSeeds[i] = seeds.Uint64()
	}

	results := make([]*Result, reps)
	errs := make([]error, reps)
	runOne := func(i int) {
		c := cfg
		c.Seed = runSeeds[i]
		c.CollectChunks = false
		if cfg.Releases != nil {
			// Per-repetition release gate of a DAG batch: repetition i
			// starts when its predecessors' repetition i finished.
			c.Release = cfg.Releases[i]
			c.Releases = nil
			c.gated = true
		}
		// Trace only the first repetition: one representative timeline
		// per batch instead of reps copies flooding the span buffer.
		if i != 0 {
			c.Obs.Tracer = nil
		}
		results[i], errs[i] = RunContext(ctx, c)
		prog.RepDone()
	}

	_, groupScoped := availability.AsGroupScoped(cfg.Avail)
	workers := runtime.GOMAXPROCS(0)
	if groupScoped || workers <= 1 || reps < 4 {
		for i := 0; i < reps && ctx.Err() == nil; i++ {
			runOne(i)
		}
	} else {
		if workers > reps {
			workers = reps
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= reps {
						return
					}
					runOne(i)
				}
			}()
		}
		wg.Wait()
	}

	if err := ctx.Err(); err != nil {
		done := 0
		for i := 0; i < reps; i++ {
			if errs[i] == nil && results[i] != nil {
				done++
			}
		}
		return nil, fmt.Errorf("sim: canceled after %d/%d repetitions: %w", done, reps, err)
	}

	out := &Sample{Makespans: make([]float64, 0, reps)}
	sumChunks, sumImb := 0.0, 0.0
	for i := 0; i < reps; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
		r := results[i]
		out.Append(r.Makespan)
		sumChunks += float64(r.NumChunks)
		sumImb += r.Imbalance
	}
	out.MeanChunks = sumChunks / float64(reps)
	out.MeanImbalance = sumImb / float64(reps)
	return out, nil
}

// ciLevelEps is the tolerance for matching a confidence level against
// the tabulated z-values; levels computed as e.g. 1-0.05 hit the fast
// path despite floating-point rounding.
const ciLevelEps = 1e-9

// ConfidenceInterval returns the normal-approximation confidence
// interval for the mean makespan at the given level in (0, 1). The
// common levels 0.90, 0.95 and 0.99 (matched within 1e-9) use the
// tabulated z-values; any other level derives its z-value from the
// inverse normal CDF. With the repetition counts used throughout this
// repository (>= 20) the normal approximation is adequate.
func (s *Sample) ConfidenceInterval(level float64) (lo, hi float64, err error) {
	var z float64
	switch {
	case math.Abs(level-0.90) < ciLevelEps:
		z = 1.6449
	case math.Abs(level-0.95) < ciLevelEps:
		z = 1.9600
	case math.Abs(level-0.99) < ciLevelEps:
		z = 2.5758
	case level > 0 && level < 1:
		z = stats.NewNormal(0, 1).Quantile((1 + level) / 2)
	default:
		return 0, 0, fmt.Errorf("sim: confidence level %v outside (0, 1)", level)
	}
	n := float64(len(s.Makespans))
	if n < 2 {
		return 0, 0, fmt.Errorf("sim: %d makespans too few for a confidence interval", len(s.Makespans))
	}
	mean := s.Mean()
	se := s.StdDev() / math.Sqrt(n)
	return mean - z*se, mean + z*se, nil
}
