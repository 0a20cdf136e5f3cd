package ra

import (
	"context"
	"fmt"

	"cdsf/internal/pool"
	"cdsf/internal/sysmodel"
)

// This file exports internals to the package's external tests, which
// need experiments.SyntheticInstance and so cannot live in package ra.

// UnprunedExhaustive is the exhaustive search without its bound: every
// partition scores every feasible completion and the partition winners
// are reduced in enumeration order. It is the oracle the
// branch-and-bound must match bit for bit.
func UnprunedExhaustive(ctx context.Context, p *Problem, workers int) (sysmodel.Allocation, error) {
	if err := p.PrecomputeContext(ctx, workers); err != nil {
		return nil, err
	}
	var opts []sysmodel.Assignment
	for j, pt := range p.Sys.Types {
		for c := 1; c <= pt.Count; c *= 2 {
			opts = append(opts, sysmodel.Assignment{Type: j, Procs: c})
		}
	}
	results := make([]partBest, len(opts))
	if err := pool.ForEach(ctx, workers, len(opts), func(_, k int) {
		var best partBest
		sysmodel.EnumerateAllocationsFrom(p.Sys, p.Batch, sysmodel.Allocation{opts[k]}, nil, func(al sysmodel.Allocation) bool {
			if s := p.scoreOf(al); s.better(best.s) {
				best = partBest{al: al.Clone(), s: s}
			}
			return true
		})
		results[k] = best
	}); err != nil {
		return nil, err
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

// BoundRoot returns the bound table's maximum of phi_1 over the whole
// feasible space of an independent batch, building p's evaluation table
// first; ok is false when the table would exceed its cap.
func BoundRoot(p *Problem) (phi float64, ok bool) {
	if err := p.PrecomputeContext(context.Background(), 1); err != nil {
		return 0, false
	}
	b := p.newBound()
	if b == nil {
		return 0, false
	}
	return b.u[b.states-1], true
}
