package pmf

import (
	"math"
	"math/bits"
	"sort"
	"sync"
)

// This file implements the merge-based cross-combination kernel behind
// Combine. The kernel is the hot path of Stage I: every
// evaluation-table cell is a Div of an execution-time PMF by an
// availability PMF, so the search engines call it millions of times.

// pulseScratch recycles the flat row buffer used by combineMerge. The
// buffer holds the full n*m cross product while it is being merged and
// is returned to the pool before the call ends, so steady-state
// combinations allocate only the output slice.
var pulseScratch = sync.Pool{
	New: func() any { b := make([]Pulse, 0, 1024); return &b },
}

func getScratch(n int) *[]Pulse {
	bp := pulseScratch.Get().(*[]Pulse)
	if cap(*bp) < n {
		*bp = make([]Pulse, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// smallCombinePulses is the output size below which Combine prefers
// the direct product loop of combineSmall over the row merge: for a
// handful of rows of a few dozen pulses, sorting the cross product
// outright is cheaper than orienting and merging rows. The threshold
// is deliberately below the ~750-pulse completion-time divisions of
// the paper instance, which stay on the merge path (and therefore keep
// their exact historical bit patterns).
const smallCombinePulses = 256

// combineSmall is the naive cross product with the defensive copy of
// New elided: it builds the product directly, sorts it, and finishes
// through the shared constructor. ok is false on non-finite values or
// zero total mass, in which case the caller falls through to the
// error-reporting path.
func combineSmall(p, q PMF, f func(x, y float64) float64) (PMF, bool) {
	ps := make([]Pulse, 0, len(p.pulses)*len(q.pulses))
	total := 0.0
	for _, a := range p.pulses {
		for _, b := range q.pulses {
			v := f(a.Value, b.Value)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return PMF{}, false
			}
			pr := a.Prob * b.Prob
			ps = append(ps, Pulse{Value: v, Prob: pr})
			total += pr
		}
	}
	if total <= 0 {
		return PMF{}, false
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Value < ps[j].Value })
	out, err := finishSorted(ps, total)
	if err != nil {
		return PMF{}, false
	}
	return out, true
}

// combineMerge is the fast path of Combine: it lays the cross product
// out as k sorted rows (k = the smaller of the two pulse counts, so the
// merge degree is minimal), checks that every row is monotone, orients
// each row ascending, and merges the rows so pulses are emitted in
// globally sorted order. ok is false when a row is non-monotone or
// contains a non-finite value, in which case the caller must use the
// naive path (whose constructor reports the error).
//
// The emission order is the order contract that keeps every result's
// bits fixed: ascending value, ties broken by row, then by position
// within the oriented row. That is exactly a stable sort of the
// row-major cross product by value, so the pulse sequence finishSorted
// sees — and with it the order in which tied and close values are
// summed — never depends on which merge strategy produced it.
func combineMerge(p, q PMF, f func(x, y float64) float64) (PMF, bool) {
	outer, inner := p.pulses, q.pulses
	swapped := false
	if len(outer) > len(inner) {
		outer, inner = inner, outer
		swapped = true
	}
	k, m := len(outer), len(inner)
	if k == 0 {
		return PMF{}, false
	}
	flatp := getScratch(k * m)
	defer pulseScratch.Put(flatp)
	flat := *flatp

	total := 0.0
	for i, a := range outer {
		row := flat[i*m : (i+1)*m]
		for j, b := range inner {
			var v float64
			if swapped {
				v = f(b.Value, a.Value)
			} else {
				v = f(a.Value, b.Value)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return PMF{}, false
			}
			row[j] = Pulse{Value: v, Prob: a.Prob * b.Prob}
			total += row[j].Prob
		}
		dir := 0 // -1 descending, +1 ascending
		for j := 1; j < m; j++ {
			switch {
			case row[j].Value > row[j-1].Value:
				if dir < 0 {
					return PMF{}, false
				}
				dir = 1
			case row[j].Value < row[j-1].Value:
				if dir > 0 {
					return PMF{}, false
				}
				dir = -1
			}
		}
		if dir < 0 {
			for l, r := 0, m-1; l < r; l, r = l+1, r-1 {
				row[l], row[r] = row[r], row[l]
			}
		}
	}
	if total <= 0 {
		return PMF{}, false
	}

	out := make([]Pulse, 0, k*m)
	switch {
	case k == 1:
		out = append(out, flat...)
	case k <= 6:
		// Low merge degree (the common case: availability PMFs have a
		// handful of pulses): a single multi-cursor scan beats
		// log2(k) merge passes. Taking the lowest row among equal
		// heads emits the same order as mergeRows.
		pos := make([]int, k)
		for len(out) < k*m {
			best := -1
			var bestV float64
			for r := 0; r < k; r++ {
				if pos[r] == m {
					continue
				}
				v := flat[r*m+pos[r]].Value
				if best < 0 || v < bestV {
					best, bestV = r, v
				}
			}
			out = append(out, flat[best*m+pos[best]])
			pos[best]++
		}
	default:
		out = out[:k*m]
		mergeRows(out, flat, m)
	}
	pm, err := finishSorted(out, total)
	if err != nil {
		return PMF{}, false
	}
	return pm, true
}

// mergeRows stably merges the ascending runs of length m in src into
// dst (len(dst) == len(src)), bottom up: each pass merges adjacent
// pairs of runs, doubling the run length, so k rows take ceil(log2 k)
// sequential passes and O(n log k) comparisons on every input — no
// value distribution can degrade it. Taking the left run on ties keeps
// the merge stable, so the output is the (value, row, position) order
// of combineMerge's contract. Passes alternate between the two
// buffers, so src is overwritten.
func mergeRows(dst, src []Pulse, m int) {
	n := len(src)
	if bits.Len(uint(n/m-1))%2 == 0 {
		// An even pass count would end in src: start from a copy in dst.
		copy(dst, src)
		src, dst = dst, src
	}
	for run := m; run < n; run *= 2 {
		for lo := 0; lo < n; lo += 2 * run {
			mid, hi := min(lo+run, n), min(lo+2*run, n)
			mergeTwo(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
	}
}

// mergeTwo merges the ascending runs x and y into dst (len(dst) ==
// len(x)+len(y)), taking from x on ties.
func mergeTwo(dst, x, y []Pulse) {
	if len(y) == 0 || x[len(x)-1].Value <= y[0].Value {
		copy(dst[copy(dst, x):], y)
		return
	}
	i, j, d := 0, 0, 0
	for i < len(x) && j < len(y) {
		if y[j].Value < x[i].Value {
			dst[d] = y[j]
			j++
		} else {
			dst[d] = x[i]
			i++
		}
		d++
	}
	d += copy(dst[d:], x[i:])
	copy(dst[d:], y[j:])
}
