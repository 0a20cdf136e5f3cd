package experiments

import (
	"context"
	"fmt"

	"cdsf/internal/core"
	"cdsf/internal/pmf"
	"cdsf/internal/pool"
	"cdsf/internal/ra"
	"cdsf/internal/report"
	"cdsf/internal/rng"
	"cdsf/internal/robustness"
	"cdsf/internal/sysmodel"
	"cdsf/internal/tracing"
)

// This file adds the precedence axis to the synthetic studies: the
// paper evaluates independent batches only, but scientific workloads
// chain applications (pre-processing -> solves -> reduction). The DAG
// study compares Stage-I heuristics across canonical topologies —
// chain, fork-join, and layered random DAGs of increasing edge density
// — on the DAG phi_1 (completion PMFs composed along the edges) and on
// the Stage-II outcome with per-replication release gating.

// ChainEdges returns the linear pipeline 0 -> 1 -> ... -> n-1.
func ChainEdges(n int) []sysmodel.Edge {
	if n < 2 {
		return nil
	}
	out := make([]sysmodel.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		out = append(out, sysmodel.Edge{From: i, To: i + 1})
	}
	return out
}

// ForkJoinEdges returns the fork-join topology: application 0 fans out
// to 1..n-2, which all join into n-1. n < 3 degenerates to ChainEdges.
func ForkJoinEdges(n int) []sysmodel.Edge {
	if n < 3 {
		return ChainEdges(n)
	}
	out := make([]sysmodel.Edge, 0, 2*(n-2))
	for i := 1; i <= n-2; i++ {
		out = append(out, sysmodel.Edge{From: 0, To: i})
	}
	for i := 1; i <= n-2; i++ {
		out = append(out, sysmodel.Edge{From: i, To: n - 1})
	}
	return out
}

// LayeredEdges returns a seeded random layered DAG: the n applications
// are split into `layers` consecutive layers of (near) equal size, and
// each (u, v) pair in adjacent layers is connected with probability
// `density`. Every non-first-layer application keeps at least one
// predecessor (the smallest-index application of the previous layer)
// so no layer short-circuits the precedence depth. The result is
// acyclic by construction and deterministic in the seed.
func LayeredEdges(seed uint64, n, layers int, density float64) []sysmodel.Edge {
	if layers < 2 || n < 2 {
		return nil
	}
	if layers > n {
		layers = n
	}
	r := rng.New(seed)
	// Layer l holds applications [bounds[l], bounds[l+1]).
	bounds := make([]int, layers+1)
	for l := 0; l <= layers; l++ {
		bounds[l] = l * n / layers
	}
	var out []sysmodel.Edge
	for l := 0; l+1 < layers; l++ {
		for v := bounds[l+1]; v < bounds[l+2]; v++ {
			linked := false
			for u := bounds[l]; u < bounds[l+1]; u++ {
				if r.Float64() < density {
					out = append(out, sysmodel.Edge{From: u, To: v})
					linked = true
				}
			}
			if !linked {
				out = append(out, sysmodel.Edge{From: bounds[l], To: v})
			}
		}
	}
	return out
}

// DAGStudyConfig parameterizes RunDAGStudy.
type DAGStudyConfig struct {
	// Apps, Type1, Type2 size the synthetic instance (SyntheticInstance).
	Apps, Type1, Type2 int
	// Slack calibrates deadline tightness against the edge-free best
	// allocation; DAG topologies then tighten the effective deadline by
	// serializing chains.
	Slack float64
	// Layers and Density shape the layered random topology.
	Layers  int
	Density float64
	// Heuristics names the Stage-I policies to compare (ra.ByName).
	Heuristics []string
	// Reps is the number of Stage-II repetitions per cell.
	Reps int
	// Scale degrades the runtime availability relative to Stage I's
	// expectation.
	Scale float64
	// Seed drives instance generation, topology sampling, and
	// simulations.
	Seed uint64
	// Backend selects the Stage-I PMF representation.
	Backend pmf.Backend
	// Workers bounds the pool evaluating (topology, heuristic) cells
	// concurrently; the output is identical for any count.
	Workers int
	// Obs receives every cell's Stage-I and Stage-II instrumentation.
	// Each cell is one single-case scenario, so Obs.Progress counts
	// one scenario and one case per cell. The study's output is
	// bit-identical under any scope.
	Obs tracing.Scope
}

// DefaultDAGStudyConfig returns the configuration used by expgen -dag.
func DefaultDAGStudyConfig(seed uint64) DAGStudyConfig {
	return DAGStudyConfig{
		Apps: 6, Type1: 8, Type2: 16,
		Slack:      2.5,
		Layers:     3,
		Density:    0.5,
		Heuristics: []string{"greedy", "twophase", "heft", "dag-greedy"},
		Reps:       10,
		Scale:      0.9,
		Seed:       seed,
	}
}

// dagTopology is one named edge set of the study.
type dagTopology struct {
	name  string
	edges []sysmodel.Edge
}

// studyTopologies materializes the study's axis for n applications.
func studyTopologies(cfg DAGStudyConfig) []dagTopology {
	n := cfg.Apps
	return []dagTopology{
		{"independent", nil},
		{"chain", ChainEdges(n)},
		{"fork-join", ForkJoinEdges(n)},
		{fmt.Sprintf("layered (d=%.1f)", cfg.Density), LayeredEdges(cfg.Seed^0x9e3779b97f4a7c15, n, cfg.Layers, cfg.Density)},
	}
}

// RunDAGStudyContext evaluates every (topology, heuristic) cell on one
// synthetic instance: Stage I under the DAG objective, then one
// degraded-availability Stage-II case with release gating. It reports
// the DAG phi_1, the expected completion of the latest sink, and
// whether the whole batch met the deadline at runtime. Seeded studies
// are bit-identical for any worker count.
func RunDAGStudyContext(ctx context.Context, cfg DAGStudyConfig) (*report.Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Apps < 2 || cfg.Reps <= 0 || cfg.Slack <= 0 || len(cfg.Heuristics) == 0 {
		return nil, fmt.Errorf("experiments: invalid DAG study config %+v", cfg)
	}
	base, err := SyntheticInstance(cfg.Seed, cfg.Apps, cfg.Type1, cfg.Type2, cfg.Slack)
	if err != nil {
		return nil, err
	}
	topos := studyTopologies(cfg)
	t := report.NewTable(
		fmt.Sprintf("DAG study: %d applications, deadline slack %.2f, runtime availability scaled to %.0f%%",
			cfg.Apps, cfg.Slack, cfg.Scale*100),
		"Topology", "Heuristic", "phi1 (%)", "E[sink] / deadline", "Batch met deadline")
	type cellResult struct {
		phi, ratio float64
		met        bool
		err        error
	}
	type cell struct{ topo, heur int }
	var jobs []cell
	for ti := range topos {
		for hi := range cfg.Heuristics {
			jobs = append(jobs, cell{topo: ti, heur: hi})
		}
	}
	results := make([]cellResult, len(jobs))
	if err := pool.ForEach(ctx, cfg.Workers, len(jobs), func(_, i int) {
		j := jobs[i]
		phi, ratio, met, err := evalDAGCell(ctx, base, topos[j.topo].edges, cfg.Heuristics[j.heur], cfg)
		results[i] = cellResult{phi: phi, ratio: ratio, met: met, err: err}
	}); err != nil {
		return nil, fmt.Errorf("experiments: DAG study canceled: %w", err)
	}
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
	}
	i := 0
	for _, topo := range topos {
		for _, h := range cfg.Heuristics {
			r := results[i]
			i++
			met := "no"
			if r.met {
				met = "yes"
			}
			t.AddRow(topo.name, h,
				fmt.Sprintf("%.1f", r.phi*100),
				fmt.Sprintf("%.2f", r.ratio),
				met)
		}
	}
	return t, nil
}

// evalDAGCell runs one (topology, heuristic) cell: a fresh problem over
// the shared instance, Stage I, the composed Stage-I evaluation, and a
// single degraded Stage-II case released along the edges.
func evalDAGCell(ctx context.Context, base *ra.Problem, edges []sysmodel.Edge, heuristic string, cfg DAGStudyConfig) (phi, ratio float64, met bool, err error) {
	h, err := ra.ByName(heuristic)
	if err != nil {
		return 0, 0, false, err
	}
	prob := &ra.Problem{Sys: base.Sys, Batch: base.Batch, Deadline: base.Deadline,
		Edges: edges, Backend: cfg.Backend, Obs: cfg.Obs}
	alloc, err := ra.SolveContext(ctx, h, prob)
	if err != nil {
		return 0, 0, false, err
	}
	st, err := robustness.EvaluateStageIDAG(base.Sys, base.Batch, edges, alloc, base.Deadline)
	if err != nil {
		return 0, 0, false, err
	}
	latest := 0.0
	for _, s := range sysmodel.Sinks(edges, len(base.Batch)) {
		if st.ExpectedTimes[s] > latest {
			latest = st.ExpectedTimes[s]
		}
	}
	f := &core.Framework{Sys: base.Sys, Batch: base.Batch, Deadline: base.Deadline, Edges: edges}
	scaled := make([]pmf.PMF, len(base.Sys.Types))
	for j, pt := range base.Sys.Types {
		scaled[j] = pt.Avail.Scale(cfg.Scale)
	}
	simCfg := core.DefaultStageII(base.Deadline, cfg.Seed)
	simCfg.PMFBackend = cfg.Backend
	simCfg.Obs = cfg.Obs
	simCfg.Reps = cfg.Reps
	sc := core.Scenario{Name: "dag: " + heuristic, IM: fixedAlloc{alloc}, RAS: core.RobustRAS()}
	res, err := f.RunScenarioContext(ctx, sc, []core.Case{{Name: "degraded", Avail: scaled}}, simCfg)
	if err != nil {
		return 0, 0, false, err
	}
	return st.Phi1, latest / base.Deadline, res.Cases[0].AllMeet, nil
}
