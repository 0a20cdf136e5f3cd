package ra

// This file implements the list-scheduling heuristics for
// precedence-constrained batches: HEFT (Heterogeneous Earliest Finish
// Time — upward-rank priority order) and a dynamic ready-list EFT
// heuristic ("dag-greedy", the ready-task/earliest-finish-time loop).
// Both schedule one application at a time onto a (type, power-of-2
// count) assignment, estimating finish times from the evaluation
// table's expected completion times — the stochastic analogue of
// HEFT's deterministic cost matrix — and both degrade gracefully on an
// edge-free batch (HEFT becomes longest-expected-time-first, dag-greedy
// becomes min-EFT), so they are registered unconditionally.

import (
	"context"
	"fmt"
	"math"
	"sort"

	"cdsf/internal/sysmodel"
)

func init() {
	registerHeuristic("heft", func() Heuristic { return HEFT{} })
	registerHeuristic("dag-greedy", func() Heuristic { return DAGGreedy{} })
}

// eftPick is one candidate (assignment, estimated finish) during list
// scheduling.
type eftPick struct {
	as   sysmodel.Assignment
	eft  float64
	prob float64
	ok   bool
}

// bestEFT returns the assignment minimizing the estimated finish time
// ready + E[T_i] for application i within the remaining capacity,
// leaving at least reserve processors for yet-unassigned applications.
// Ties are broken by higher standalone deadline probability, then
// fewer processors, then lower type index — all deterministic.
func (p *Problem) bestEFT(i int, ready float64, remaining []int, reserve int) eftPick {
	total := 0
	for _, r := range remaining {
		total += r
	}
	best := eftPick{eft: math.Inf(1)}
	for j := range p.Sys.Types {
		for _, c := range feasibleCounts(remaining[j]) {
			if total-c < reserve {
				continue
			}
			as := sysmodel.Assignment{Type: j, Procs: c}
			eft := ready + p.appExpected(i, as)
			prob := p.appProb(i, as)
			better := eft < best.eft-1e-9 ||
				(math.Abs(eft-best.eft) <= 1e-9 && prob > best.prob+1e-12) ||
				(math.Abs(eft-best.eft) <= 1e-9 && math.Abs(prob-best.prob) <= 1e-12 && c < best.as.Procs)
			if !best.ok || better {
				best = eftPick{as: as, eft: eft, prob: prob, ok: true}
			}
		}
	}
	return best
}

// HEFT is the Heterogeneous-Earliest-Finish-Time list scheduler
// adapted to the stochastic model: applications are prioritized by
// upward rank (mean single-processor expected completion plus the
// longest downstream rank chain) and each is assigned, in rank order,
// the (type, power-of-2 count) minimizing its estimated finish time —
// the maximum predecessor finish estimate plus its own expected
// completion on the candidate assignment.
type HEFT struct{}

// Name returns "heft".
func (HEFT) Name() string { return "heft" }

// AllocateContext implements Heuristic: ctx is checked once per
// scheduled application.
func (HEFT) AllocateContext(ctx context.Context, p *Problem) (sysmodel.Allocation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.PrecomputeContext(ctx, 0); err != nil {
		return nil, err
	}
	n := len(p.Batch)
	// Upward ranks over the reversed topological order. The node weight
	// is the mean over types of the single-processor expected completion
	// time; edges carry no communication cost in this model.
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := range p.Sys.Types {
			sum += p.appExpected(i, sysmodel.Assignment{Type: j, Procs: 1})
		}
		w[i] = sum / float64(len(p.Sys.Types))
	}
	order, err := sysmodel.TopoOrder(p.Edges, n)
	if err != nil {
		return nil, fmt.Errorf("ra: heft: %w", err)
	}
	succs := sysmodel.Succs(p.Edges, n)
	rank := make([]float64, n)
	for x := n - 1; x >= 0; x-- {
		i := order[x]
		best := 0.0
		for _, s := range succs[i] {
			if rank[s] > best {
				best = rank[s]
			}
		}
		rank[i] = w[i] + best
	}
	// Schedule in decreasing rank (stable: ties keep batch order).
	byRank := make([]int, n)
	for i := range byRank {
		byRank[i] = i
	}
	sort.SliceStable(byRank, func(a, b int) bool { return rank[byRank[a]] > rank[byRank[b]]+1e-12 })

	preds := sysmodel.Preds(p.Edges, n)
	remaining := make([]int, len(p.Sys.Types))
	for j, t := range p.Sys.Types {
		remaining[j] = t.Count
	}
	al := make(sysmodel.Allocation, n)
	finish := make([]float64, n)
	for done, i := range byRank {
		if err := ctx.Err(); err != nil {
			return nil, searchErr("heft", err)
		}
		ready := 0.0
		for _, pr := range preds[i] {
			if finish[pr] > ready {
				ready = finish[pr]
			}
		}
		pick := p.bestEFT(i, ready, remaining, n-done-1)
		if !pick.ok {
			return nil, fmt.Errorf("ra: heft ran out of processors")
		}
		al[i] = pick.as
		finish[i] = pick.eft
		remaining[pick.as.Type] -= pick.as.Procs
	}
	return al, nil
}

// DAGGreedy is the dynamic ready-list EFT scheduler: at every step the
// applications whose predecessors are all scheduled form the ready
// set, and the (ready application, assignment) pair with the smallest
// estimated finish time is scheduled next. Unlike HEFT the priority
// order adapts to the assignments already made.
type DAGGreedy struct{}

// Name returns "dag-greedy".
func (DAGGreedy) Name() string { return "dag-greedy" }

// AllocateContext implements Heuristic: ctx is checked once per
// scheduled application.
func (DAGGreedy) AllocateContext(ctx context.Context, p *Problem) (sysmodel.Allocation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.PrecomputeContext(ctx, 0); err != nil {
		return nil, err
	}
	n := len(p.Batch)
	preds := sysmodel.Preds(p.Edges, n)
	remaining := make([]int, len(p.Sys.Types))
	for j, t := range p.Sys.Types {
		remaining[j] = t.Count
	}
	al := make(sysmodel.Allocation, n)
	finish := make([]float64, n)
	scheduled := make([]bool, n)
	for done := 0; done < n; done++ {
		if err := ctx.Err(); err != nil {
			return nil, searchErr("dag-greedy", err)
		}
		bestI := -1
		var bestPick eftPick
		for i := 0; i < n; i++ {
			if scheduled[i] {
				continue
			}
			ready := 0.0
			isReady := true
			for _, pr := range preds[i] {
				if !scheduled[pr] {
					isReady = false
					break
				}
				if finish[pr] > ready {
					ready = finish[pr]
				}
			}
			if !isReady {
				continue
			}
			pick := p.bestEFT(i, ready, remaining, n-done-1)
			if !pick.ok {
				return nil, fmt.Errorf("ra: dag-greedy ran out of processors")
			}
			if bestI < 0 || pick.eft < bestPick.eft-1e-9 ||
				(math.Abs(pick.eft-bestPick.eft) <= 1e-9 && pick.prob > bestPick.prob+1e-12) {
				bestI, bestPick = i, pick
			}
		}
		if bestI < 0 {
			// Validation guarantees acyclic edges, so a ready application
			// always exists; defend anyway.
			return nil, fmt.Errorf("ra: dag-greedy found no ready application")
		}
		al[bestI] = bestPick.as
		finish[bestI] = bestPick.eft
		scheduled[bestI] = true
		remaining[bestPick.as.Type] -= bestPick.as.Procs
	}
	return al, nil
}
