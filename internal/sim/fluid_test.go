package sim

import (
	"context"
	"math"
	"testing"

	"cdsf/internal/availability"
	"cdsf/internal/dls"
	"cdsf/internal/pmf"
	"cdsf/internal/stats"
)

// fluidTol is the relative slack of the fluid bound: FinishTime stops
// once less than 1e-12 of work remains, so a chunk may end a hair
// before its exact finish time.
const fluidTol = 1e-9

// fluidFinish returns T*, the earliest time at which the workers'
// summed capacity from start covers work: the makespan of the fluid
// ("sand") schedule, in which the work is infinitely divisible,
// dispatching costs nothing and every worker computes until the last
// unit is done. Availability is piecewise constant on epochs of length
// interval (+Inf for a static model); each epoch's rate is read at the
// middle of the part of it that lies past t, so a rounded epoch
// boundary never reads the neighbouring epoch. Processes are queried
// in time order, as the simulator queries them.
func fluidFinish(procs []availability.Process, interval, start, work float64) float64 {
	t := start
	for {
		end := math.Inf(1)
		if !math.IsInf(interval, 1) {
			end = (math.Floor(t/interval) + 1) * interval
			if end <= t {
				end = t + interval
			}
		}
		mid := t + 1
		if !math.IsInf(end, 1) {
			mid = (t + end) / 2
		}
		rate := 0.0
		for _, p := range procs {
			rate += p.At(mid)
		}
		if capacity := (end - t) * rate; capacity >= work {
			return t + work/rate
		}
		work -= (end - t) * rate
		t = end
	}
}

// fluidCase is one simulator configuration checked against the fluid
// bound; interval is its availability epoch length (+Inf if static).
type fluidCase struct {
	name     string
	cfg      Config
	interval float64
}

// TestParallelPhaseAboveFluidBound is the Stage-II oracle: no DLS
// technique can finish a sweep's parallel loop before the fluid
// schedule of the same sample path. For every registered technique,
// availability model and seed the test rebuilds the run's sample path
// from its seed — the availability processes and the iteration-cost
// vector — splits the chunk log into sweeps, and asserts that each
// sweep lasted at least T* − start, so ParallelTime ≥ Σ (T* − start).
// Scheduling overhead is non-negative and only delays the real run, so
// a violation means the simulator lost or double-counted work or
// capacity.
func TestParallelPhaseAboveFluidBound(t *testing.T) {
	load := pmf.MustNew([]pmf.Pulse{{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1, Prob: 0.5}})
	base := Config{
		SerialIters:      10,
		ParallelIters:    400,
		Workers:          5,
		IterTime:         stats.NewNormal(1, 0.3),
		Overhead:         0.5,
		WeightsFromAvail: true,
		BestMaster:       true,
	}
	const interval = 30.0
	with := func(mod func(*Config)) Config {
		c := base
		mod(&c)
		return c
	}
	cases := []fluidCase{
		{"static", with(func(c *Config) { c.Avail = availability.Static{PMF: load} }), math.Inf(1)},
		{"redraw", with(func(c *Config) { c.Avail = availability.Redraw{PMF: load, Interval: interval} }), interval},
		{"markov", with(func(c *Config) {
			c.Avail = availability.Markov{PMF: load, Interval: interval, Persistence: 0.5}
		}), interval},
		{"sharedload", with(func(c *Config) {
			c.Avail = &availability.SharedLoad{Shared: load, Idio: load, Mix: 0.5, Interval: interval, Persistence: 0.5}
		}), interval},
		{"markov-released", with(func(c *Config) {
			c.Avail = availability.Markov{PMF: load, Interval: interval, Persistence: 0.5}
			c.Release = 47.5
			c.gated = true
		}), interval},
		{"markov-3-steps", with(func(c *Config) {
			c.Avail = availability.Markov{PMF: load, Interval: interval, Persistence: 0.5}
			c.TimeSteps = 3
			c.IterProfile = IncreasingProfile
		}), interval},
	}
	checked := 0
	for _, fc := range cases {
		for _, name := range dls.Names() {
			for seed := uint64(1); seed <= 20; seed++ {
				cfg := fc.cfg
				cfg.Technique = tech(t, name)
				cfg.Seed = seed
				cfg.CollectChunks = true
				res, err := RunContext(context.Background(), cfg)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", fc.name, name, seed, err)
				}
				bound := fluidBound(t, &cfg, fc.interval, res)
				if res.ParallelTime < bound*(1-fluidTol) {
					t.Errorf("%s/%s seed %d: parallel time %v below the fluid bound %v",
						fc.name, name, seed, res.ParallelTime, bound)
				}
				checked++
			}
		}
	}
	if checked < 20*len(cases)*4 {
		t.Fatalf("checked only %d runs", checked)
	}
}

// fluidBound rebuilds res's sample path from cfg's seed and returns
// Σ (T* − start) over its sweeps. Each sweep's start is the dispatch
// time of its first chunk (every worker starts the sweep then), and
// its parallel work is the sum of its slice of the cost vector.
func fluidBound(t *testing.T, cfg *Config, interval float64, res *Result) float64 {
	t.Helper()
	// Availability processes are functions of time, so each sweep gets
	// fresh ones from the seed: a bound past the next sweep's start
	// then fails the assertion instead of querying backwards.
	rebuild := func() []availability.Process {
		availRng, _ := streams(cfg.Seed)
		if gr, ok := cfg.Avail.(availability.GroupScoped); ok {
			gr.ResetGroup()
		}
		procs := make([]availability.Process, cfg.Workers)
		for i := range procs {
			procs[i] = cfg.Avail.NewProcess(availRng)
		}
		return procs
	}
	_, workRng := streams(cfg.Seed)
	costs := fillCosts(cfg, workRng, nil)
	total, chunk := 0.0, 0
	for step := 0; step < cfg.steps(); step++ {
		if chunk >= len(res.Chunks) {
			t.Fatalf("chunk log ends before sweep %d", step)
		}
		start := res.Chunks[chunk].Start
		if cfg.steps() == 1 && start < cfg.Release+res.SerialTime*(1-fluidTol) {
			t.Fatalf("sweep 0 starts at %v, before its release and serial phase end at %v", start, cfg.Release+res.SerialTime)
		}
		for iters := 0; iters < cfg.ParallelIters; chunk++ {
			iters += res.Chunks[chunk].Size
		}
		off := step*(cfg.SerialIters+cfg.ParallelIters) + cfg.SerialIters
		work := 0.0
		for _, x := range costs[off : off+cfg.ParallelIters] {
			work += x
		}
		total += fluidFinish(rebuild(), interval, start, work) - start
	}
	if chunk != len(res.Chunks) {
		t.Fatalf("%d chunks past the last sweep", len(res.Chunks)-chunk)
	}
	return total
}
