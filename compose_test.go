package cdsf_bench

import (
	"context"
	"math"
	"testing"

	"cdsf/internal/pmf"
	"cdsf/internal/ra"
	"cdsf/internal/sysmodel"
)

// foldComposeDAG is sysmodel.ComposeDAG with every Add step written as
// the fold Add(ready, T_i).Compact(maxPulses) that pmf.AddCompact
// computes in one pass.
func foldComposeDAG(t *testing.T, dists []pmf.PMF, edges []sysmodel.Edge, maxPulses int) []pmf.PMF {
	t.Helper()
	order, err := sysmodel.TopoOrder(edges, len(dists))
	if err != nil {
		t.Fatal(err)
	}
	preds := sysmodel.Preds(edges, len(dists))
	out := make([]pmf.PMF, len(dists))
	for _, i := range order {
		if len(preds[i]) == 0 {
			out[i] = dists[i]
			continue
		}
		ready := out[preds[i][0]]
		for _, p := range preds[i][1:] {
			ready = pmf.Max(ready, out[p]).Compact(maxPulses)
		}
		out[i] = pmf.Add(ready, dists[i]).Compact(maxPulses)
	}
	return out
}

// TestComposeDAGMatchesCompactFold checks the sparse DAG composition
// against the Add/Max/Compact fold on dag-service instances (seeds
// 10-15) under benchDAGAllocation and the allocations of the four
// heuristics the service runs: every composed PMF must give the fold's
// P(C_i <= x) within 1e-9 at x from 0.5 to 1.5 times the deadline, and
// its mean within 1e-9 relative.
func TestComposeDAGMatchesCompactFold(t *testing.T) {
	var worstPr, worstMean float64
	for seed := uint64(10); seed <= 15; seed++ {
		sys, bat, edges, deadline := benchDAGInstance(t, seed)
		prob := &ra.Problem{Sys: sys, Batch: bat, Deadline: deadline, Edges: edges}
		names := []string{"benchDAGAllocation", "heft", "dag-greedy", "greedy", "twophase"}
		allocs := []sysmodel.Allocation{benchDAGAllocation}
		for _, name := range names[1:] {
			h, err := ra.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			al, err := ra.SolveContext(context.Background(), h, prob)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			allocs = append(allocs, al)
		}
		for k, al := range allocs {
			dists := make([]pmf.PMF, len(bat))
			for i, as := range al {
				dists[i] = bat[i].CompletionPMF(as.Type, as.Procs, sys.Types[as.Type].Avail)
			}
			got, err := sysmodel.ComposeDAG(dists, edges, sysmodel.DAGMaxPulses)
			if err != nil {
				t.Fatal(err)
			}
			want := foldComposeDAG(t, dists, edges, sysmodel.DAGMaxPulses)
			for i := range got {
				for step := 0; step <= 20; step++ {
					x := deadline * (0.5 + 0.05*float64(step))
					d := math.Abs(got[i].PrLE(x) - want[i].PrLE(x))
					worstPr = max(worstPr, d)
					if d > 1e-9 {
						t.Errorf("seed %d %s app %d: P(C <= %.1f) off the fold by %.3g", seed, names[k], i, x, d)
					}
				}
				d := math.Abs(got[i].Mean()-want[i].Mean()) / want[i].Mean()
				worstMean = max(worstMean, d)
				if d > 1e-9 {
					t.Errorf("seed %d %s app %d: mean %v, fold %v", seed, names[k], i, got[i].Mean(), want[i].Mean())
				}
			}
		}
	}
	t.Logf("largest deviation from the fold: %.3g in probability, %.3g relative in the mean", worstPr, worstMean)
}
