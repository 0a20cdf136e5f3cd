package ra

// This file implements the DAG-aware Stage-I objective. With
// precedence edges on the Problem, phi_1 is no longer the product of
// standalone per-application deadline probabilities: each
// application's completion time is composed along its predecessor
// chains (C_i = T_i + max over preds C_p, the PERT approximation in
// sysmodel/dag.go) and phi_1 is the product over the sink
// applications. Both PMF backends are supported — sparse composition
// uses pmf.Max/pmf.Add with compaction, the grid backend uses the
// CDF-product MaxWith and index-shifted Add on the table's lattice —
// and the per-cell distributions retained by PrecomputeContext make each
// composition start from table reads (sparse PMFs directly, packed
// grid cells through one Unpack each). Evaluate is the final, sparse
// evaluation of the allocation a search returns, answered from the
// cache's evaluation tier when one is attached.

import (
	"slices"

	"cdsf/internal/cache"
	"cdsf/internal/pmf"
	"cdsf/internal/robustness"
	"cdsf/internal/sysmodel"
)

// distFor returns the full completion-time distribution of application
// i under assignment as: an O(1) read of the retained table
// distributions when available, a direct computation otherwise
// (non-power-of-2 hand-written allocations, or cells the warm cache
// was missing).
func (p *Problem) distFor(i int, as sysmodel.Assignment) pmf.Dist {
	if t := p.table; t != nil && t.dists != nil {
		if k, ok := log2of(as.Procs); ok && k < t.logs && as.Type >= 0 && as.Type < t.types && i >= 0 && i < len(p.Batch) {
			if d := t.dists[(i*t.types+as.Type)*t.logs+k]; d != nil {
				return d
			}
		}
	}
	return p.computeDist(i, as)
}

// dagPhi returns the DAG phi_1 of an allocation, computed by composing
// the per-application completion distributions along the edges and
// multiplying the sink probabilities: a lower bound (up to compaction
// error) on the probability that every application of the
// precedence-constrained batch finishes by the deadline, because the
// composition treats paths through a shared ancestor as independent
// (sysmodel/dag.go). The allocation must already be validated. Safe for
// concurrent use once the Problem is precomputed (compositions build
// only private intermediates).
func (p *Problem) dagPhi(al sysmodel.Allocation) float64 {
	n := len(p.Batch)
	sinks := sysmodel.Sinks(p.Edges, n)
	if p.Backend.IsGrid() {
		// Cells are stored packed; composition runs on pooled dense
		// copies, which ComposeDAGGrid consumes.
		dists := make([]*pmf.Grid, n)
		for i := 0; i < n; i++ {
			dists[i] = p.distFor(i, al[i]).(*pmf.PackedGrid).Unpack()
		}
		comp, err := sysmodel.ComposeDAGGrid(dists, p.Edges)
		if err != nil {
			sysmodel.ReleaseGrids(dists)
			return 0
		}
		phi := 1.0
		for _, s := range sinks {
			phi *= comp[s].PrLE(p.Deadline)
		}
		sysmodel.ReleaseGrids(comp)
		return phi
	}
	dists := make([]pmf.PMF, n)
	for i := 0; i < n; i++ {
		dists[i] = p.distFor(i, al[i]).(pmf.PMF)
	}
	comp, err := sysmodel.ComposeDAG(dists, p.Edges, sysmodel.DAGMaxPulses)
	if err != nil {
		return 0
	}
	phi := 1.0
	for _, s := range sinks {
		phi *= comp[s].PrLE(p.Deadline)
	}
	return phi
}

// Evaluate returns the final Stage-I evaluation of an allocation under
// the Problem's deadline and edges: robustness.EvaluateStageIDAG, the
// sparse reference, whatever Backend the search ran on. With a Cache
// attached and edges present, the composition is answered from the
// cache's evaluation tier when a Problem over the same instance, edges
// and deadline evaluated the same allocation before, and published to
// it otherwise; PerApp, ExpectedTimes and Phi1 carry the bits of the
// reference either way, and Completion is nil, because the tier holds
// no PMFs. An independent batch is n table reads, so it always takes
// the reference path, as does a Problem without a Cache. The tier's
// key starts from the instance's sparse TableKey, which a precomputed
// Problem already holds; only an un-precomputed one hashes it here.
func (p *Problem) Evaluate(al sysmodel.Allocation) (*robustness.StageIResult, error) {
	if p.Cache == nil || len(p.Edges) == 0 {
		return robustness.EvaluateStageIDAG(p.Sys, p.Batch, p.Edges, al, p.Deadline)
	}
	var tk cache.Key
	if t := p.table; t != nil && t.evalKey != nil {
		tk = *t.evalKey
	} else {
		k, err := cache.TableKey(p.Sys, p.Batch, pmf.BackendSparse, 0)
		if err != nil {
			// An unhashable instance: the reference reports the fault.
			return robustness.EvaluateStageIDAG(p.Sys, p.Batch, p.Edges, al, p.Deadline)
		}
		tk = k
	}
	key := cache.EvalKey(tk, p.Edges, p.Deadline, al)
	if ev, ok := p.Cache.GetEval(key); ok {
		return &robustness.StageIResult{
			Alloc:         al.Clone(),
			PerApp:        slices.Clone(ev.PerApp),
			ExpectedTimes: slices.Clone(ev.ExpectedTimes),
			Phi1:          ev.Phi1,
		}, nil
	}
	res, err := robustness.EvaluateStageIDAG(p.Sys, p.Batch, p.Edges, al, p.Deadline)
	if err != nil {
		return nil, err
	}
	res.Completion = nil
	p.Cache.PutEval(key, &cache.Eval{
		PerApp:        slices.Clone(res.PerApp),
		ExpectedTimes: slices.Clone(res.ExpectedTimes),
		Phi1:          res.Phi1,
	})
	return res, nil
}
