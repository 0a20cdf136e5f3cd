package ra

import (
	"context"
	"fmt"
	"math"

	"cdsf/internal/pool"
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

// Exhaustive returns the feasible allocation maximizing phi_1 — the
// paper's "robust IM", exact at every size it is run on. Ties in phi_1
// (common once discretized PMFs saturate at probability 1) are broken
// by the smaller expected system makespan (max of E[T_i]), then by the
// smaller sum of expected completion times, so the chosen allocation is
// also the most efficient among the equally robust ones.
//
// The enumeration is partitioned by the first application's assignment
// across a worker pool; each partition keeps its own incumbent and the
// partition winners are max-reduced in enumeration order, so the result
// is bit-identical for every worker count. On an independent batch the
// scan is a branch-and-bound: it skips a subtree only when the bound
// table (bound.go) proves that none of its allocations would replace
// the partition's incumbent, so it returns exactly what the full scan
// returns while scoring 72 of the paper instance's 153 allocations and
// at most ~200,000 of the 647,993,773 of a 10x48 tournament instance.
// DAG objectives, and capacities too large for the bound table, are
// scanned in full: exponential in batch size.
type Exhaustive struct {
	// Workers bounds the search's worker pool; non-positive means
	// runtime.NumCPU(). The result never depends on it.
	Workers int
}

// Name returns "exhaustive".
func (Exhaustive) Name() string { return "exhaustive" }

// SetWorkers implements WorkerSettable.
func (h *Exhaustive) SetWorkers(workers int) { h.Workers = workers }

// PhiTol and expTol are score.better's tie tolerances on phi_1 and on
// the expected-time criteria. Exhaustive is optimal up to PhiTol: among
// allocations whose phi_1 values lie within it of each other, it
// returns the one with the lower expected makespan.
const (
	PhiTol = 1e-12
	expTol = 1e-9
)

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
	if s.phi > o.phi+PhiTol {
		return true
	}
	if s.phi < o.phi-PhiTol {
		return false
	}
	if s.maxExp < o.maxExp-expTol {
		return true
	}
	if s.maxExp > o.maxExp+expTol {
		return false
	}
	return s.sumExp < o.sumExp-expTol
}

// with folds one more application's cell into the score.
func (s score) with(c memoVal) score {
	s.phi *= c.prob
	s.sumExp += c.expected
	if c.expected > s.maxExp {
		s.maxExp = c.expected
	}
	return s
}

// emptyScore is the fold of no application.
var emptyScore = score{phi: 1, defined: true}

func (p *Problem) scoreOf(al sysmodel.Allocation) score {
	s := emptyScore
	for i := range p.Batch {
		s = s.with(p.evalCell(i, al[i]))
	}
	if len(p.Edges) > 0 {
		// Precedence edges change the objective: phi_1 is the composed
		// DAG probability, while the expected-time tie-breaks keep their
		// standalone per-application readings.
		s.phi = p.dagPhi(al)
	}
	return s
}

// AllocateContext implements Heuristic. Workers scan partitions
// concurrently against the shared evaluation table and the search's
// bound table, built per search. Each partition scan checks ctx every
// cancelCheckStride visited enumeration nodes and the partition pool
// drains at the next partition boundary, so cancelling a
// multi-billion-allocation search returns within milliseconds.
func (h Exhaustive) AllocateContext(ctx context.Context, p *Problem) (sysmodel.Allocation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.PrecomputeContext(ctx, h.Workers); err != nil {
		return nil, err
	}
	var b *bound
	if len(p.Edges) == 0 {
		b = p.newBound()
	}
	// Partitions: every capacity-feasible assignment of application 0,
	// in the order the sequential enumeration would try them.
	var opts []sysmodel.Assignment
	for j := range p.Sys.Types {
		for _, c := range feasibleCounts(p.Sys.Types[j].Count) {
			opts = append(opts, sysmodel.Assignment{Type: j, Procs: c})
		}
	}
	results := make([]partBest, len(opts))
	// scanned tallies scored allocations; each partition counts in a
	// local integer and flushes once, so the scan loop stays free of
	// atomic traffic.
	scanned := p.Obs.Metrics.Counter("ra.exhaustive_scanned")
	tr := p.Obs.Tracer
	poolErr := pool.ForEach(ctx, h.Workers, len(opts), func(_, k int) {
		// Span names are formatted only when a tracer records them.
		if tr != nil {
			defer tr.Begin(fmt.Sprintf("stage1/exhaustive/p%02d", k),
				fmt.Sprintf("partition app0=%dx type%d", opts[k].Procs, opts[k].Type+1), "stage1").End()
		}
		var n int64
		results[k], n = p.scanPartition(ctx, b, opts[k])
		scanned.Add(n)
	})
	if poolErr != nil {
		return nil, searchErr("exhaustive", poolErr)
	}
	var best partBest
	for _, r := range results {
		if r.al != nil && r.s.better(best.s) {
			best = r
		}
	}
	if best.al == nil {
		return nil, fmt.Errorf("ra: no feasible allocation")
	}
	return best.al, nil
}

// partBest is one partition's winner.
type partBest struct {
	al sysmodel.Allocation
	s  score
}

// scanPartition returns what a sequential scan of the completions of
// the one-assignment prefix first ends with — an incumbent replaced
// only by a later allocation that score.better ranks above it — and
// the number of allocations it scored. With a bound table it skips the
// subtrees the table proves hold no such allocation; with b nil it
// scores every completion. ctx is checked every cancelCheckStride
// visited nodes; once it is done the scan unwinds and the caller's pool
// reports the error.
func (p *Problem) scanPartition(ctx context.Context, b *bound, first sysmodel.Assignment) (partBest, int64) {
	var best partBest
	var scored, nodes int64
	stopped := false
	tick := func() bool {
		if nodes++; nodes%cancelCheckStride == 0 && ctx.Err() != nil {
			stopped = true
		}
		return !stopped
	}
	// pre[i] is scoreOf's fold over the node's applications 0..i-1;
	// enter(i) always follows enter(i-1) on the same prefix (or, at the
	// partition root i = 1, the empty fold pre[0]).
	pre := make([]score, len(p.Batch)+1)
	pre[0] = emptyScore
	enter := func(i int, al sysmodel.Allocation, remaining []int) bool {
		if !tick() {
			return false
		}
		if b == nil {
			return true
		}
		pre[i] = pre[i-1].with(p.table.cell(i-1, al[i-1]))
		return !b.prunes(i, remaining, pre[i], best.s)
	}
	sysmodel.EnumerateAllocationsFrom(p.Sys, p.Batch, sysmodel.Allocation{first}, enter, func(al sysmodel.Allocation) bool {
		if !tick() {
			return false
		}
		scored++
		if s := p.scoreOf(al); s.better(best.s) {
			best = partBest{al: al.Clone(), s: s}
		}
		return true
	})
	return best, scored
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
