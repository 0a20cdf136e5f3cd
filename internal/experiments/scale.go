package experiments

import (
	"context"
	"fmt"

	"cdsf/internal/cache"
	"cdsf/internal/core"
	"cdsf/internal/dls"
	"cdsf/internal/pmf"
	"cdsf/internal/pool"
	"cdsf/internal/ra"
	"cdsf/internal/report"
	"cdsf/internal/rng"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
	"cdsf/internal/tracing"
)

// This file implements the paper's closing future-work item: "a larger
// scale problem ... probabilistic studies will be performed on this
// larger problem to determine the benefit of the CDSF on a range of
// application and system parameters". RunScaleStudy draws many random
// instances, evaluates the four IM x RAS quadrants on each, and
// aggregates how often each quadrant satisfies the deadline — the 2x2
// hypothesis of Section IV established statistically instead of by a
// single example.

// SyntheticBatch draws a random CDSF system and batch: `apps`
// applications over a two-type system of type1 + type2 processors with
// the paper's case-1 availability PMFs. Mean execution times are drawn
// uniformly in [600, 4800] per type, serial fractions in [2%, 30%].
func SyntheticBatch(seed uint64, apps, type1, type2 int) (*sysmodel.System, sysmodel.Batch) {
	r := rng.New(seed)
	sys := &sysmodel.System{Types: []sysmodel.ProcType{
		{Name: "Type 1", Count: type1, Avail: availCase1Type1},
		{Name: "Type 2", Count: type2, Avail: availCase1Type2},
	}}
	b := make(sysmodel.Batch, apps)
	for i := range b {
		total := 512 + r.Intn(4096)
		sf := 0.02 + 0.28*r.Float64()
		serial := int(sf * float64(total))
		if serial < 1 {
			serial = 1
		}
		exec := make([]pmf.PMF, 2)
		for j := range exec {
			mu := 600 * (1 + 7*r.Float64())
			exec[j] = pmf.Discretize(stats.NewNormal(mu, mu/10), 100)
		}
		b[i] = sysmodel.Application{
			Name:          fmt.Sprintf("App %d", i+1),
			SerialIters:   serial,
			ParallelIters: total - serial,
			ExecTime:      exec,
		}
	}
	return sys, b
}

// SyntheticInstance is the SyntheticBatch draw with a deadline
// calibrated per instance to `slack` times the expected makespan of the
// two-phase heuristic's allocation, so instances are comparably tight
// across sizes.
func SyntheticInstance(seed uint64, apps, type1, type2 int, slack float64) (*ra.Problem, error) {
	sys, b := SyntheticBatch(seed, apps, type1, type2)
	// Calibrate the deadline with a provisional problem (deadline only
	// influences tie-breaking in the calibration allocation).
	prov := &ra.Problem{Sys: sys, Batch: b, Deadline: 1e12}
	al, err := (ra.TwoPhaseGreedy{}).AllocateContext(context.TODO(), prov)
	if err != nil {
		return nil, err
	}
	maxExp := 0.0
	for i := range b {
		e := b[i].CompletionPMF(al[i].Type, al[i].Procs, sys.Types[al[i].Type].Avail).Mean()
		if e > maxExp {
			maxExp = e
		}
	}
	return &ra.Problem{Sys: sys, Batch: b, Deadline: slack * maxExp}, nil
}

// ScaleConfig parameterizes RunScaleStudy.
type ScaleConfig struct {
	// Instances is the number of random instances per size.
	Instances int
	// Sizes lists the (apps, type1, type2) triples to study.
	Sizes [][3]int
	// Slack calibrates deadline tightness (see SyntheticInstance);
	// 1.2 gives instances where naive policies routinely fail.
	Slack float64
	// Scale degrades the runtime availability relative to Stage I's
	// expectation (A <= E[A-hat], per the paper's Stage-II assumption).
	Scale float64
	// Reps is the number of Stage-II repetitions per cell.
	Reps int
	// Seed drives instance generation and simulations.
	Seed uint64
	// Workers bounds the pool evaluating (size, quadrant, instance)
	// cells concurrently; non-positive means runtime.NumCPU(). Every
	// cell derives its randomness from Seed alone, so the study's output
	// is identical for any worker count.
	Workers int
	// Backend selects the PMF representation for every Stage-I search
	// in the study; the zero value is the exact sparse backend. The
	// grid backend makes the large instances' evaluation tables much
	// cheaper at a quantization error bounded in DESIGN.md.
	Backend pmf.Backend
	// Cache, when non-nil, is the content-addressed solve cache shared
	// by every cell's Stage-I and Stage-II work; the study's output is
	// bit-identical with it on or off.
	Cache *cache.Cache
	// Obs receives every cell's Stage-I and Stage-II instrumentation.
	// Each cell is one single-case scenario, so Obs.Progress counts
	// one scenario and one case per cell. The study's output is
	// bit-identical under any scope.
	Obs tracing.Scope
}

// DefaultScaleConfig returns the configuration used by the repository's
// scale-study benchmark.
func DefaultScaleConfig(seed uint64) ScaleConfig {
	return ScaleConfig{
		Instances: 10,
		Sizes:     [][3]int{{3, 4, 8}, {6, 8, 16}, {10, 16, 32}},
		Slack:     1.5,
		Scale:     0.8,
		Reps:      10,
		Seed:      seed,
	}
}

// quadrant identifies one IM x RAS combination.
type quadrant struct {
	name string
	im   ra.Heuristic
	ras  []dls.Technique
}

// RunScaleStudyContext is RunScaleStudy under a context: cancellation
// stops the cell pool from claiming further (size, quadrant, instance)
// cells, drains in-flight evaluations (each of which also observes ctx
// through the Stage-I and Stage-II layers), and returns an error
// wrapping ctx.Err(). Uncancelled seeded studies are bit-identical to
// RunScaleStudy for any worker count.
func RunScaleStudyContext(ctx context.Context, cfg ScaleConfig) (*report.Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Instances <= 0 || cfg.Reps <= 0 || cfg.Slack <= 0 {
		return nil, fmt.Errorf("experiments: invalid scale config %+v", cfg)
	}
	// Robust IM is the paper's: the exhaustive optimum, one worker per
	// search since the study's cells are its parallel unit.
	robust := ra.Exhaustive{Workers: 1}
	quadrants := []quadrant{
		{"naive IM + STATIC", ra.NaiveLoadBalance{}, core.NaiveRAS()},
		{"robust IM + STATIC", robust, core.NaiveRAS()},
		{"naive IM + robust DLS", ra.NaiveLoadBalance{}, core.RobustRAS()},
		{"robust IM + robust DLS", robust, core.RobustRAS()},
	}
	t := report.NewTable(
		fmt.Sprintf("Scale study: %d instances per size, runtime availability scaled to %.0f%%, deadline slack %.2f",
			cfg.Instances, cfg.Scale*100, cfg.Slack),
		"Size (apps x procs)", "Quadrant", "Mean phi1 (%)", "Batch met deadline (%)")
	// Flatten every (size, quadrant, instance) cell into one job list
	// and evaluate the cells across a worker pool. Each cell's seed is a
	// pure function of the config, and each worker writes only its own
	// result slot, so aggregation below sees identical inputs for any
	// worker count.
	type cell struct {
		size [3]int
		quad int
		inst int
	}
	type cellResult struct {
		phi float64
		met bool
		err error
	}
	var jobs []cell
	for _, size := range cfg.Sizes {
		for qi := range quadrants {
			for k := 0; k < cfg.Instances; k++ {
				jobs = append(jobs, cell{size: size, quad: qi, inst: k})
			}
		}
	}
	results := make([]cellResult, len(jobs))
	if err := pool.ForEach(ctx, cfg.Workers, len(jobs), func(_, i int) {
		j := jobs[i]
		apps, t1, t2 := j.size[0], j.size[1], j.size[2]
		seed := cfg.Seed ^ uint64(j.inst)<<16 ^ uint64(apps)<<40
		prob, err := SyntheticInstance(seed, apps, t1, t2, cfg.Slack)
		if err != nil {
			results[i] = cellResult{err: err}
			return
		}
		prob.Backend = cfg.Backend
		prob.Cache = cfg.Cache
		prob.Obs = cfg.Obs
		ok, phi, err := evalQuadrant(ctx, prob, quadrants[j.quad], cfg, seed)
		results[i] = cellResult{phi: phi, met: ok, err: err}
	}); err != nil {
		return nil, fmt.Errorf("experiments: scale study canceled: %w", err)
	}
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
	}
	// Aggregate sequentially in the original (size, quadrant) order.
	i := 0
	for _, size := range cfg.Sizes {
		apps, t1, t2 := size[0], size[1], size[2]
		for _, q := range quadrants {
			sumPhi, met := 0.0, 0
			for k := 0; k < cfg.Instances; k++ {
				r := results[i]
				i++
				sumPhi += r.phi
				if r.met {
					met++
				}
			}
			t.AddRow(
				fmt.Sprintf("%d x %d", apps, t1+t2),
				q.name,
				fmt.Sprintf("%.1f", sumPhi/float64(cfg.Instances)*100),
				fmt.Sprintf("%.0f", float64(met)/float64(cfg.Instances)*100))
		}
	}
	return t, nil
}

// evalQuadrant runs one quadrant on one instance: Stage I allocation,
// then per-application Stage-II simulation under degraded availability;
// the batch "meets" when every application has some technique whose
// mean completion time satisfies the deadline.
func evalQuadrant(ctx context.Context, prob *ra.Problem, q quadrant, cfg ScaleConfig, seed uint64) (bool, float64, error) {
	alloc, err := ra.SolveContext(ctx, q.im, prob)
	if err != nil {
		return false, 0, err
	}
	phi, err := prob.Objective(alloc)
	if err != nil {
		return false, 0, err
	}
	f := &core.Framework{Sys: prob.Sys, Batch: prob.Batch, Deadline: prob.Deadline}
	scaled := make([]pmf.PMF, len(prob.Sys.Types))
	for j, pt := range prob.Sys.Types {
		scaled[j] = pt.Avail.Scale(cfg.Scale)
	}
	simCfg := core.DefaultStageII(prob.Deadline, seed)
	simCfg.PMFBackend = cfg.Backend
	simCfg.Cache = cfg.Cache
	simCfg.Obs = cfg.Obs
	simCfg.Reps = cfg.Reps
	sc := core.Scenario{Name: q.name, IM: fixedAlloc{alloc}, RAS: q.ras}
	res, err := f.RunScenarioContext(ctx, sc, []core.Case{{Name: "degraded", Avail: scaled}}, simCfg)
	if err != nil {
		return false, 0, err
	}
	return res.Cases[0].AllMeet, phi, nil
}

// fixedAlloc adapts a precomputed allocation to the Heuristic interface
// so the quadrant's Stage-I decision is not recomputed inside
// RunScenario.
type fixedAlloc struct{ al sysmodel.Allocation }

func (f fixedAlloc) Name() string { return "fixed" }
func (f fixedAlloc) AllocateContext(context.Context, *ra.Problem) (sysmodel.Allocation, error) {
	return f.al, nil
}
