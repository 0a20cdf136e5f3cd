package ra

import (
	"context"
	"fmt"
	"math"

	"cdsf/internal/sysmodel"
)

// This file implements the paper's two Stage-I policies plus simple
// constructive heuristics.

func init() {
	registerHeuristic("naive", func() Heuristic { return NaiveLoadBalance{} })
	registerHeuristic("exhaustive", func() Heuristic { return &Exhaustive{} })
	registerHeuristic("greedy", func() Heuristic { return Greedy{} })
	registerHeuristic("minmin", func() Heuristic { return MinMin{} })
	registerHeuristic("twophase", func() Heuristic { return TwoPhaseGreedy{} })
}

// NaiveLoadBalance is the paper's naive IM policy: every application
// receives an equal share of the processors — the largest power of 2 not
// exceeding TotalProcessors/N — and among the feasible equal-share
// type placements the one with the highest phi_1 is chosen.
type NaiveLoadBalance struct{}

// Name returns "naive".
func (NaiveLoadBalance) Name() string { return "naive" }

// AllocateContext implements Heuristic: the equal-share placement
// enumeration checks ctx every cancelCheckStride complete placements.
func (NaiveLoadBalance) AllocateContext(ctx context.Context, p *Problem) (sysmodel.Allocation, error) {
	if err := p.PrecomputeContext(ctx, 1); err != nil {
		return nil, err
	}
	n := len(p.Batch)
	share := 1
	for share*2*n <= p.Sys.TotalProcessors() {
		share *= 2
	}
	// Enumerate type placements with a fixed share per application and
	// keep the most robust feasible one; if the nominal equal share does
	// not fit the per-type capacities (e.g. 8 processors exist overall
	// but no single type has 8), halve it until a placement exists.
	leaves := 0
	stopped := false
	for ; share >= 1; share /= 2 {
		var best sysmodel.Allocation
		bestPhi := -1.0
		al := make(sysmodel.Allocation, n)
		remaining := make([]int, len(p.Sys.Types))
		for j, t := range p.Sys.Types {
			remaining[j] = t.Count
		}
		var rec func(i int)
		rec = func(i int) {
			if stopped {
				return
			}
			if i == n {
				if leaves++; leaves%cancelCheckStride == 0 && ctx.Err() != nil {
					stopped = true
					return
				}
				phi, err := p.Objective(al)
				if err == nil && phi > bestPhi {
					bestPhi = phi
					best = al.Clone()
				}
				return
			}
			for j := range p.Sys.Types {
				if remaining[j] < share {
					continue
				}
				al[i] = sysmodel.Assignment{Type: j, Procs: share}
				remaining[j] -= share
				rec(i + 1)
				remaining[j] += share
			}
		}
		rec(0)
		if stopped {
			return nil, searchErr("naive", ctx.Err())
		}
		if best != nil {
			return best, nil
		}
	}
	return nil, fmt.Errorf("ra: no feasible equal-share allocation")
}

// Exhaustive enumerates every feasible allocation and returns the one
// maximizing phi_1 — the paper's "robust IM" (optimal at small scale;
// exponential in batch size). Ties in phi_1 (common once discretized
// PMFs saturate at probability 1) are broken by the smaller expected
// system makespan (max of E[T_i]), then by the smaller sum of expected
// completion times, so the chosen allocation is also the most efficient
// among the equally robust ones.
//
// The enumeration is partitioned by the first application's assignment
// across a worker pool; each partition is scanned in sequential order
// and the partition winners are max-reduced in that same order, so the
// result is bit-identical for every worker count.
type Exhaustive struct {
	// Workers bounds the search's worker pool; non-positive means
	// runtime.NumCPU(). The result never depends on it.
	Workers int
}

// Name returns "exhaustive".
func (Exhaustive) Name() string { return "exhaustive" }

// SetWorkers implements WorkerSettable.
func (h *Exhaustive) SetWorkers(workers int) { h.Workers = workers }

// score orders allocations: higher phi_1 first, then lower expected
// makespan, then lower total expected time.
type score struct {
	phi     float64
	maxExp  float64
	sumExp  float64
	defined bool
}

func (s score) better(o score) bool {
	if !o.defined {
		return true
	}
	const tol = 1e-12
	if s.phi > o.phi+tol {
		return true
	}
	if s.phi < o.phi-tol {
		return false
	}
	if s.maxExp < o.maxExp-1e-9 {
		return true
	}
	if s.maxExp > o.maxExp+1e-9 {
		return false
	}
	return s.sumExp < o.sumExp-1e-9
}

func (p *Problem) scoreOf(al sysmodel.Allocation) score {
	s := score{phi: 1, defined: true}
	for i := range p.Batch {
		prob := p.appProb(i, al[i])
		exp := p.appExpected(i, al[i])
		s.phi *= prob
		s.sumExp += exp
		if exp > s.maxExp {
			s.maxExp = exp
		}
	}
	if len(p.Edges) > 0 {
		// Precedence edges change the objective: phi_1 is the composed
		// DAG probability, while the expected-time tie-breaks keep their
		// standalone per-application readings.
		s.phi = p.dagPhi(al)
	}
	return s
}

// AllocateContext implements Heuristic. The feasible space is
// partitioned by the first application's assignment (in enumeration
// order); workers scan partitions concurrently against the shared
// evaluation table, and the per-partition winners are reduced in
// partition order with the same first-wins tie-break the sequential
// scan uses. Each partition scan checks ctx every cancelCheckStride
// enumerated allocations and the partition pool drains at the next
// partition boundary, so cancelling a multi-billion-allocation search
// returns within milliseconds.
func (h Exhaustive) AllocateContext(ctx context.Context, p *Problem) (sysmodel.Allocation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.PrecomputeContext(ctx, h.Workers); err != nil {
		return nil, err
	}
	// Partitions: every capacity-feasible assignment of application 0,
	// in the order the sequential enumeration would try them.
	var opts []sysmodel.Assignment
	for j := range p.Sys.Types {
		for _, c := range feasibleCounts(p.Sys.Types[j].Count) {
			opts = append(opts, sysmodel.Assignment{Type: j, Procs: c})
		}
	}
	type partBest struct {
		al sysmodel.Allocation
		s  score
	}
	results := make([]partBest, len(opts))
	// scanned tallies enumerated allocations; each partition counts in a
	// local integer and flushes once, so the scan loop stays free of
	// atomic traffic.
	scanned := p.Obs.Metrics.Counter("ra.exhaustive_scanned")
	tr := p.Obs.Tracer
	poolErr := runParallel(ctx, h.Workers, len(opts), func(k int) {
		defer tr.Begin(fmt.Sprintf("stage1/exhaustive/p%02d", k),
			fmt.Sprintf("partition app0=%dx type%d", opts[k].Procs, opts[k].Type+1), "stage1").End()
		var best sysmodel.Allocation
		var bestScore score
		var n int64
		sysmodel.EnumerateAllocationsFrom(p.Sys, p.Batch, sysmodel.Allocation{opts[k]}, func(al sysmodel.Allocation) bool {
			n++
			if n%cancelCheckStride == 0 && ctx.Err() != nil {
				return false
			}
			if s := p.scoreOf(al); s.better(bestScore) {
				bestScore = s
				best = al.Clone()
			}
			return true
		})
		scanned.Add(n)
		results[k] = partBest{al: best, s: bestScore}
	})
	if poolErr != nil {
		return nil, searchErr("exhaustive", poolErr)
	}
	var best sysmodel.Allocation
	var bestScore score
	for _, r := range results {
		if r.al != nil && r.s.better(bestScore) {
			best, bestScore = r.al, r.s
		}
	}
	if best == nil {
		return nil, fmt.Errorf("ra: no feasible allocation")
	}
	return best, nil
}

// Greedy assigns applications in decreasing order of their best
// single-application deadline probability's *scarcity* (the application
// whose best option is worst goes first), giving each its individually
// best remaining assignment. It is O(N^2 * options).
type Greedy struct{}

// Name returns "greedy".
func (Greedy) Name() string { return "greedy" }

// AllocateContext implements Heuristic: ctx is checked once per
// assignment round.
func (Greedy) AllocateContext(ctx context.Context, p *Problem) (sysmodel.Allocation, error) {
	if err := p.PrecomputeContext(ctx, 1); err != nil {
		return nil, err
	}
	n := len(p.Batch)
	remaining := make([]int, len(p.Sys.Types))
	for j, t := range p.Sys.Types {
		remaining[j] = t.Count
	}
	al := make(sysmodel.Allocation, n)
	assigned := make([]bool, n)
	for done := 0; done < n; done++ {
		if err := ctx.Err(); err != nil {
			return nil, searchErr("greedy", err)
		}
		// Pick the unassigned application whose best achievable
		// probability is lowest (most constrained first).
		worstI := -1
		worstProb := math.Inf(1)
		var worstAs sysmodel.Assignment
		unassigned := n - done
		for i := 0; i < n; i++ {
			if assigned[i] {
				continue
			}
			as, ok := p.bestSingleApp(i, remaining, unassigned-1)
			if !ok {
				return nil, fmt.Errorf("ra: greedy ran out of processors")
			}
			prob := p.appProb(i, as)
			if prob < worstProb {
				worstI, worstProb, worstAs = i, prob, as
			}
		}
		al[worstI] = worstAs
		assigned[worstI] = true
		remaining[worstAs.Type] -= worstAs.Procs
	}
	return al, nil
}

// MinMin adapts the classic Min-Min heuristic (Ibarra & Kim) to the
// stochastic objective: repeatedly assign the (application, assignment)
// pair with the smallest expected completion time among each
// application's individually best options.
type MinMin struct{}

// Name returns "minmin".
func (MinMin) Name() string { return "minmin" }

// AllocateContext implements Heuristic: ctx is checked once per
// assignment round.
func (MinMin) AllocateContext(ctx context.Context, p *Problem) (sysmodel.Allocation, error) {
	if err := p.PrecomputeContext(ctx, 1); err != nil {
		return nil, err
	}
	n := len(p.Batch)
	remaining := make([]int, len(p.Sys.Types))
	for j, t := range p.Sys.Types {
		remaining[j] = t.Count
	}
	al := make(sysmodel.Allocation, n)
	assigned := make([]bool, n)
	for done := 0; done < n; done++ {
		if err := ctx.Err(); err != nil {
			return nil, searchErr("minmin", err)
		}
		pickI := -1
		pickExp := 0.0
		var pickAs sysmodel.Assignment
		unassigned := n - done
		totalRemaining := 0
		for _, r := range remaining {
			totalRemaining += r
		}
		for i := 0; i < n; i++ {
			if assigned[i] {
				continue
			}
			// The application's individually best option by expected
			// completion time within remaining capacity, reserving one
			// processor for every other unassigned application.
			bestExp := math.Inf(1)
			var bestAs sysmodel.Assignment
			found := false
			for j := range p.Sys.Types {
				for _, c := range feasibleCounts(remaining[j]) {
					if totalRemaining-c < unassigned-1 {
						continue
					}
					as := sysmodel.Assignment{Type: j, Procs: c}
					if e := p.appExpected(i, as); e < bestExp {
						bestExp, bestAs, found = e, as, true
					}
				}
			}
			if !found {
				return nil, fmt.Errorf("ra: minmin ran out of processors")
			}
			if pickI == -1 || bestExp < pickExp {
				pickI, pickExp, pickAs = i, bestExp, bestAs
			}
		}
		al[pickI] = pickAs
		assigned[pickI] = true
		remaining[pickAs.Type] -= pickAs.Procs
	}
	return al, nil
}

// TwoPhaseGreedy first gives every application a minimal footprint (one
// processor of its individually best type), then repeatedly doubles the
// allocation of the application whose upgrade most increases phi_1,
// until no upgrade fits or helps. It mirrors the iterative-improvement
// structure of Shestak et al.'s static stochastic allocators.
type TwoPhaseGreedy struct{}

// Name returns "twophase".
func (TwoPhaseGreedy) Name() string { return "twophase" }

// AllocateContext implements Heuristic: ctx is checked once per phase-1
// placement and per phase-2 doubling round.
func (TwoPhaseGreedy) AllocateContext(ctx context.Context, p *Problem) (sysmodel.Allocation, error) {
	if err := p.PrecomputeContext(ctx, 1); err != nil {
		return nil, err
	}
	n := len(p.Batch)
	remaining := make([]int, len(p.Sys.Types))
	for j, t := range p.Sys.Types {
		remaining[j] = t.Count
	}
	al := make(sysmodel.Allocation, n)
	// Phase 1: one processor each, on the type with the best
	// single-processor probability (ties broken by smaller expected
	// completion time, which matters while all probabilities are 0).
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, searchErr("twophase", err)
		}
		bestJ, bestProb := -1, -1.0
		bestExp := math.Inf(1)
		for j := range p.Sys.Types {
			if remaining[j] < 1 {
				continue
			}
			as := sysmodel.Assignment{Type: j, Procs: 1}
			prob := p.appProb(i, as)
			exp := p.appExpected(i, as)
			if prob > bestProb+1e-12 || (math.Abs(prob-bestProb) <= 1e-12 && exp < bestExp) {
				bestJ, bestProb, bestExp = j, prob, exp
			}
		}
		if bestJ < 0 {
			return nil, fmt.Errorf("ra: twophase ran out of processors in phase 1")
		}
		al[i] = sysmodel.Assignment{Type: bestJ, Procs: 1}
		remaining[bestJ]--
	}
	// Phase 2: greedy doubling. The upgrade score is lexicographic:
	// higher phi_1, then higher sum of per-application probabilities
	// (which keeps progress measurable while phi_1 is still 0), then
	// lower expected makespan, then lower total expected time — the last
	// criterion keeps consuming spare capacity once phi_1 saturates,
	// which buys runtime margin against availability perturbation.
	type phase2Score struct {
		phi, sumProb, maxExp, sumExp float64
	}
	scoreNow := func() phase2Score {
		s := phase2Score{phi: 1}
		for i := range p.Batch {
			prob := p.appProb(i, al[i])
			exp := p.appExpected(i, al[i])
			s.phi *= prob
			s.sumProb += prob
			s.sumExp += exp
			if exp > s.maxExp {
				s.maxExp = exp
			}
		}
		return s
	}
	betterP2 := func(a, b phase2Score) bool {
		const tol = 1e-12
		if a.phi > b.phi+tol {
			return true
		}
		if a.phi < b.phi-tol {
			return false
		}
		if a.sumProb > b.sumProb+tol {
			return true
		}
		if a.sumProb < b.sumProb-tol {
			return false
		}
		if a.maxExp < b.maxExp-1e-9 {
			return true
		}
		if a.maxExp > b.maxExp+1e-9 {
			return false
		}
		return a.sumExp < b.sumExp-1e-9
	}
	cur := scoreNow()
	for {
		if err := ctx.Err(); err != nil {
			return nil, searchErr("twophase", err)
		}
		bestI := -1
		var bestAs sysmodel.Assignment
		bestScore := cur
		for i := 0; i < n; i++ {
			as := al[i]
			// Candidate moves: double in place, or switch to another
			// type at the largest feasible power-of-2 count there.
			var cands []sysmodel.Assignment
			if remaining[as.Type] >= as.Procs {
				cands = append(cands, sysmodel.Assignment{Type: as.Type, Procs: as.Procs * 2})
			}
			for j := range p.Sys.Types {
				if j == as.Type || remaining[j] < 1 {
					continue
				}
				c := 1
				for c*2 <= remaining[j] {
					c *= 2
				}
				cands = append(cands, sysmodel.Assignment{Type: j, Procs: c})
			}
			for _, cand := range cands {
				al[i] = cand
				s := scoreNow()
				al[i] = as
				if betterP2(s, bestScore) {
					bestI, bestAs, bestScore = i, cand, s
				}
			}
		}
		if bestI < 0 {
			break
		}
		remaining[al[bestI].Type] += al[bestI].Procs
		remaining[bestAs.Type] -= bestAs.Procs
		al[bestI] = bestAs
		cur = bestScore
	}
	return al, nil
}
