package ra

import "math"

// This file implements the bound behind Exhaustive's branch-and-bound.
// On an independent batch every criterion of score is separable: phi_1
// is a product of one evaluation-table cell per application, the
// expected makespan a maximum and the total expected time a sum of
// them, all under per-type processor budgets (the shape Benoit,
// Rehn-Sonigo & Robert optimize pipeline reliability over). A dynamic
// program over (application, remaining processors per type) therefore
// gives, for every node of the enumeration, the best value each
// criterion can still reach among the node's completions. Exhaustive
// skips a subtree only when these values prove that none of its
// allocations beats the partition's incumbent under score.better, so
// the pruned search returns exactly what the full scan returns.

// maxBoundCells caps the bound table at (applications+1) x capacity
// states; client-sized capacities beyond it are scanned unpruned.
const maxBoundCells = 1 << 20

// boundEps absorbs the rounding of the bound's products and sums,
// which are formed in a different order from scoreOf's.
const boundEps = 1e-12

// bound is the dynamic-programming table of one search. A capacity
// state s is the mixed-radix index sum_j remaining_j * stride[j] over
// radices Count_j + 1; entries are indexed [i*states + s] and describe
// the feasible assignments of applications i..n-1 within state s.
type bound struct {
	stride []int
	states int
	fit    []bool    // some assignment fits
	u      []float64 // max of prod Pr(T <= Delta)
	lm     []float64 // min of max E[T]
	ls     []float64 // min of sum E[T]
}

// newBound builds the bound table from p's evaluation table, or
// returns nil when it would exceed maxBoundCells. p must be an
// independent batch with its table built.
func (p *Problem) newBound() *bound {
	n := len(p.Batch)
	b := &bound{stride: make([]int, len(p.Sys.Types)), states: 1}
	for j, pt := range p.Sys.Types {
		// (n+1) * states * (Count+1) <= maxBoundCells, without overflow.
		if pt.Count >= maxBoundCells/(n+1)/b.states {
			return nil
		}
		b.stride[j] = b.states
		b.states *= pt.Count + 1
	}
	cells := (n + 1) * b.states
	b.fit = make([]bool, cells)
	b.u = make([]float64, cells)
	b.lm = make([]float64, cells)
	b.ls = make([]float64, cells)
	for k := range cells {
		if k >= n*b.states {
			b.fit[k], b.u[k] = true, 1
		} else {
			b.lm[k], b.ls[k] = math.Inf(1), math.Inf(1)
		}
	}
	t := p.table
	for i := n - 1; i >= 0; i-- {
		for s := 0; s < b.states; s++ {
			k := i*b.states + s
			for j, pt := range p.Sys.Types {
				r := s / b.stride[j] % (pt.Count + 1)
				for c, lg := 1, 0; c <= r; c, lg = c*2, lg+1 {
					child := k + b.states - c*b.stride[j]
					if !b.fit[child] {
						continue
					}
					cell := t.cells[(i*t.types+j)*t.logs+lg]
					b.fit[k] = true
					b.u[k] = max(b.u[k], cell.prob*b.u[child])
					b.lm[k] = min(b.lm[k], max(cell.expected, b.lm[child]))
					b.ls[k] = min(b.ls[k], cell.expected+b.ls[child])
				}
			}
		}
	}
	return b
}

// prunes reports whether no completion of a node can beat inc under
// score.better: the node has applications 0..i-1 assigned with prefix
// score pre (scoreOf's fold over them) and leaves remaining processors
// free per type. A node without any feasible completion is always
// pruned; otherwise nothing is pruned before the first incumbent.
func (b *bound) prunes(i int, remaining []int, pre, inc score) bool {
	k := i * b.states
	for j, r := range remaining {
		k += r * b.stride[j]
	}
	if !b.fit[k] {
		return true
	}
	if !inc.defined {
		return false
	}
	phi := pre.phi * b.u[k] * (1 + boundEps)
	if phi < inc.phi-PhiTol {
		return true
	}
	if !(phi <= inc.phi+PhiTol) {
		return false
	}
	// Every completion ties inc on phi_1 at best; it must then lose on
	// the expected makespan or tie it and lose on the total.
	mx := max(pre.maxExp, b.lm[k])
	if mx > inc.maxExp+expTol {
		return true
	}
	return mx >= inc.maxExp-expTol && (pre.sumExp+b.ls[k])*(1-boundEps) >= inc.sumExp-expTol
}
