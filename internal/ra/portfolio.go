package ra

import (
	"context"
	"fmt"

	"cdsf/internal/sysmodel"
)

// Portfolio runs several heuristics and keeps the allocation with the
// highest phi_1 — the standard way to harden a production allocator
// against any single heuristic's blind spots. Members run concurrently
// across a worker pool and share the Problem's precomputed evaluation
// table, so the portfolio costs roughly its slowest member's search
// time, not the sum. Results are merged in member order (first member
// wins phi_1 ties), so the outcome is identical for any worker count.
type Portfolio struct {
	// Members are the competing heuristics; empty uses the default
	// portfolio (greedy, maxmin, duplex, twophase, anneal, genetic).
	Members []Heuristic
	// Workers bounds the member worker pool; non-positive means
	// runtime.NumCPU(). The result never depends on it.
	Workers int
}

func init() {
	registerHeuristic("portfolio", func() Heuristic { return &Portfolio{} })
}

// Name returns "portfolio".
func (Portfolio) Name() string { return "portfolio" }

// SetWorkers implements WorkerSettable.
func (p *Portfolio) SetWorkers(workers int) { p.Workers = workers }

// DefaultPortfolio returns the default member set: the cheap
// constructive heuristics plus the two strongest metaheuristics.
func DefaultPortfolio() []Heuristic {
	names := []string{"greedy", "maxmin", "duplex", "twophase", "anneal", "genetic"}
	out := make([]Heuristic, 0, len(names))
	for _, n := range names {
		if h, ok := Get(n); ok {
			out = append(out, h)
		}
	}
	return out
}

// Allocate implements Heuristic: best member wins; members that fail
// are skipped, and an error is returned only if every member fails.
func (p Portfolio) Allocate(prob *Problem) (sysmodel.Allocation, error) {
	return p.AllocateContext(context.Background(), prob)
}

// AllocateContext implements ContextHeuristic: ctx reaches every member
// through SolveContext, so cancelling the portfolio cancels its
// members' searches, and the member pool drains before returning.
func (p Portfolio) AllocateContext(ctx context.Context, prob *Problem) (sysmodel.Allocation, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if err := prob.PrecomputeContext(ctx, p.Workers); err != nil {
		return nil, err
	}
	members := p.Members
	if len(members) == 0 {
		members = DefaultPortfolio()
	}
	type memberResult struct {
		al  sysmodel.Allocation
		phi float64
		err error
	}
	results := make([]memberResult, len(members))
	tr := prob.Obs.Tracer
	poolErr := runParallel(ctx, p.Workers, len(members), func(i int) {
		defer tr.Begin("stage1/portfolio/"+members[i].Name(), members[i].Name(), "stage1").End()
		al, err := SolveContext(ctx, members[i], prob)
		if err != nil {
			results[i] = memberResult{err: fmt.Errorf("ra: portfolio member %s: %w", members[i].Name(), err)}
			return
		}
		phi, err := prob.Objective(al)
		results[i] = memberResult{al: al, phi: phi, err: err}
	})
	if poolErr != nil {
		return nil, searchErr("portfolio", poolErr)
	}
	var best sysmodel.Allocation
	bestPhi := -1.0
	var lastErr error
	for _, r := range results {
		if r.err != nil {
			lastErr = r.err
			continue
		}
		if r.phi > bestPhi {
			bestPhi = r.phi
			best = r.al
		}
	}
	if best == nil {
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, fmt.Errorf("ra: portfolio has no members")
	}
	return best, nil
}
