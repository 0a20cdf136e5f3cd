package sysmodel

// This file extends the batch model with precedence constraints: a set
// of directed edges over the applications of a batch turns the
// independent batch of the paper into a DAG workload (scientific
// campaigns and pipeline workflows). The helpers here are the shared
// foundation of every DAG-aware layer: deterministic validation and
// topological ordering for Stage I and the API, and the PERT-style
// completion-time composition that Stage I's phi_1 is computed from.
//
// Composition model: application i cannot start before every
// predecessor has finished, so its completion time is
//
//	C_i = T_i + max_{p in preds(i)} C_p
//
// where T_i is the application's own (stochastic) completion time on
// its assigned processors. Composing in topological order with the
// pmf Max/Add operators yields each C_i. Branch completion times that
// share ancestors are treated as independent when maxed — the
// classical PERT approximation; the Stage-II simulator provides the
// exact Monte-Carlo counterpart.
//
// phi_1 over a DAG estimates Pr(every application finishes by the
// deadline). Because C_i is monotone along edges (execution times are
// strictly positive), the event {all C_i <= Delta} equals {C_s <=
// Delta for every sink s}, and phi_1 is the product of the sink
// probabilities, which assumes the sinks independent too. Every C_i is
// a nondecreasing function of independent inputs (the execution times
// and the inverse availabilities), so by Harris's inequality the
// events {C <= t} are positively correlated: the true Pr(max <= t) is
// at least the product PERT's max computes, and Pr(all sinks <= Delta)
// is at least the product over sinks. Each step errs low, so on a DAG
// phi_1 is a lower bound on the joint probability, up to compaction
// error. An edge-free batch makes every application a sink and
// recovers the paper's independent product exactly.

import (
	"fmt"
	"sort"

	"cdsf/internal/pmf"
)

// Edge is one precedence constraint: application From must finish
// before application To may start. Indices refer to positions in the
// batch.
type Edge struct {
	From int
	To   int
}

// EdgeError is a validation failure of one edge set, carrying the
// field path of the offending element in the canonical instance
// schema (e.g. "edges[3].from") so API layers can surface it in
// structured error documents.
type EdgeError struct {
	// Path locates the failure: "edges[i].from", "edges[i].to",
	// "edges[i]", or "edges" for whole-set failures like cycles.
	Path string
	// Msg describes the failure.
	Msg string
}

func (e *EdgeError) Error() string { return e.Path + ": " + e.Msg }

// ValidateEdges checks a precedence-edge set over n applications:
// every endpoint must name an application (0 <= idx < n), self-edges
// are rejected, and the edges must admit a topological order (no
// cycles). Duplicate edges are permitted — they are semantically
// idempotent. Failures are *EdgeError values with canonical field
// paths.
func ValidateEdges(edges []Edge, n int) error {
	for i, e := range edges {
		if e.From < 0 || e.From >= n {
			return &EdgeError{Path: fmt.Sprintf("edges[%d].from", i),
				Msg: fmt.Sprintf("unknown application %d (batch has %d)", e.From, n)}
		}
		if e.To < 0 || e.To >= n {
			return &EdgeError{Path: fmt.Sprintf("edges[%d].to", i),
				Msg: fmt.Sprintf("unknown application %d (batch has %d)", e.To, n)}
		}
		if e.From == e.To {
			return &EdgeError{Path: fmt.Sprintf("edges[%d]", i),
				Msg: fmt.Sprintf("self-edge on application %d", e.From)}
		}
	}
	if _, err := TopoOrder(edges, n); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns a deterministic topological order of applications
// 0..n-1 under the edges: Kahn's algorithm emitting the
// smallest-index ready application first, so the order depends only on
// the edge set, never on map iteration or insertion order. It returns
// an *EdgeError on a cycle (endpoints must already be in range; use
// ValidateEdges for full validation).
func TopoOrder(edges []Edge, n int) ([]int, error) {
	indeg := make([]int, n)
	for _, e := range edges {
		if e.To >= 0 && e.To < n {
			indeg[e.To]++
		}
	}
	succs := Succs(edges, n)
	order := make([]int, 0, n)
	emitted := make([]bool, n)
	for len(order) < n {
		next := -1
		for i := 0; i < n; i++ {
			if !emitted[i] && indeg[i] == 0 {
				next = i
				break
			}
		}
		if next < 0 {
			cyc := make([]int, 0, n-len(order))
			for i := 0; i < n; i++ {
				if !emitted[i] {
					cyc = append(cyc, i)
				}
			}
			return nil, &EdgeError{Path: "edges",
				Msg: fmt.Sprintf("precedence cycle through applications %v", cyc)}
		}
		emitted[next] = true
		order = append(order, next)
		for _, s := range succs[next] {
			indeg[s]--
		}
	}
	return order, nil
}

// Preds returns, for each application, its sorted, deduplicated
// predecessor list under the edges.
func Preds(edges []Edge, n int) [][]int {
	out := make([][]int, n)
	for _, e := range edges {
		if e.To >= 0 && e.To < n && e.From >= 0 && e.From < n {
			out[e.To] = append(out[e.To], e.From)
		}
	}
	for i := range out {
		out[i] = sortedUnique(out[i])
	}
	return out
}

// Succs returns, for each application, its successor list under the
// edges, with duplicates preserved (TopoOrder's in-degree bookkeeping
// counts edges, not neighbors). Endpoints outside 0..n-1 are skipped.
func Succs(edges []Edge, n int) [][]int {
	out := make([][]int, n)
	for _, e := range edges {
		if e.From >= 0 && e.From < n && e.To >= 0 && e.To < n {
			out[e.From] = append(out[e.From], e.To)
		}
	}
	return out
}

// Sinks returns the sorted applications with no successors — the
// terminal applications whose completion determines the DAG makespan.
// With no edges every application is a sink.
func Sinks(edges []Edge, n int) []int {
	hasSucc := make([]bool, n)
	for _, e := range edges {
		if e.From >= 0 && e.From < n {
			hasSucc[e.From] = true
		}
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !hasSucc[i] {
			out = append(out, i)
		}
	}
	return out
}

// sortedUnique sorts s ascending and drops duplicates in place.
func sortedUnique(s []int) []int {
	if len(s) < 2 {
		return s
	}
	sort.Ints(s)
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[w-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}

// DAGMaxPulses bounds the pulse count of each intermediate PMF during
// sparse DAG composition: Max and Add grow supports multiplicatively
// along chains, so each composed distribution is compacted back to this
// many pulses. The bound matches the grid backend's resolution scale
// (ra quantizes at deadline/1024), keeping the two backends' phi_1
// within the quantization bounds of DESIGN.md §9.
const DAGMaxPulses = 2048

// ComposeDAG composes per-application completion-time PMFs along the
// precedence edges: out[i] is the PMF of C_i = T_i + max over
// predecessors' C, built in topological order with pmf.Max / pmf.Add
// under the PERT independence approximation. dists[i] is application
// i's standalone completion PMF (CompletionPMF under its assignment).
// Intermediates are compacted to maxPulses pulses (<= 0 disables
// compaction; DAGMaxPulses is the standard choice); each Add step is
// then pmf.AddCompact, which bins the sums into their cells without
// building the full sum. Source applications' PMFs are returned
// unchanged, so with no edges the output equals dists
// element-for-element.
func ComposeDAG(dists []pmf.PMF, edges []Edge, maxPulses int) ([]pmf.PMF, error) {
	order, err := TopoOrder(edges, len(dists))
	if err != nil {
		return nil, err
	}
	preds := Preds(edges, len(dists))
	out := make([]pmf.PMF, len(dists))
	for _, i := range order {
		if len(preds[i]) == 0 {
			out[i] = dists[i]
			continue
		}
		ready := out[preds[i][0]]
		for _, p := range preds[i][1:] {
			ready = pmf.Max(ready, out[p])
			if maxPulses > 0 {
				ready = ready.Compact(maxPulses)
			}
		}
		if maxPulses > 0 {
			out[i] = pmf.AddCompact(ready, dists[i], maxPulses)
		} else {
			out[i] = pmf.Add(ready, dists[i])
		}
	}
	return out, nil
}

// ComposeDAGGrid is ComposeDAG on the dense grid backend: all inputs
// must share one lattice step, Max is the CDF-product MaxWith and Add
// the exact index-shifted convolution, so no compaction is needed —
// the lattice itself bounds resolution. It consumes the input grids:
// as in ComposeDAG, a source application's grid is returned unchanged
// as its own output, and every other input is Released once it has
// been added. Every returned grid is owned by the caller and must be
// Released. On error the inputs are untouched and stay the caller's.
func ComposeDAGGrid(dists []*pmf.Grid, edges []Edge) ([]*pmf.Grid, error) {
	order, err := TopoOrder(edges, len(dists))
	if err != nil {
		return nil, err
	}
	preds := Preds(edges, len(dists))
	out := make([]*pmf.Grid, len(dists))
	for _, i := range order {
		if len(preds[i]) == 0 {
			out[i] = dists[i]
			continue
		}
		ready := out[preds[i][0]]
		owned := false
		for _, p := range preds[i][1:] {
			next := ready.MaxWith(out[p])
			if owned {
				ready.Release()
			}
			ready, owned = next, true
		}
		out[i] = ready.Add(dists[i])
		dists[i].Release()
		if owned {
			ready.Release()
		}
	}
	return out, nil
}

// ReleaseGrids releases every non-nil grid of a ComposeDAGGrid result.
func ReleaseGrids(gs []*pmf.Grid) {
	for _, g := range gs {
		if g != nil {
			g.Release()
		}
	}
}
