package pmf

import (
	"fmt"
	"math"
)

// This file implements the binned sum behind the sparse DAG
// composition. ComposeDAG adds every ready time (up to DAGMaxPulses
// pulses) to a completion PMF of a hundred or more and compacts the
// sum straight back to the cap; the fold Add(p, q).Compact(maxPulses)
// would first sort a ~300k-pulse cross product only to rebin it.

// sumCell accumulates the sums that fall into one compaction cell.
type sumCell struct {
	mass, sum float64 // Σ prob and Σ prob·value of the cell's sums
}

// AddCompact returns the PMF of X + Y for independent X ~ p and Y ~ q,
// compacted to at most maxPulses pulses: the compaction that
// Add(p, q).Compact(maxPulses) defines, without building the n·m-pulse
// sum. Every sum goes straight into its cell, floor(v/width) for the
// width (max−min)/maxPulses of Compact, widened by 1.1 until at most
// maxPulses pulses remain, and every non-empty cell becomes one pulse
// at its conditional mean. The cost is one O(n·m) pass per width with
// maxPulses+2 accumulators, whatever the spread of the values; nothing
// is sorted.
//
// The sums reach their cells in row-major order instead of Add's
// sorted order, so the result agrees with the fold to rounding, not
// bit for bit. Where the fold may not compact at all, AddCompact
// returns the fold itself: when n·m <= maxPulses; when a sum or a
// product of probabilities is not representable (Add then panics or
// drops the pulse as it always has); and when the sums may take at
// most maxPulses values that Add keeps apart (manySums). It panics if
// maxPulses < 1.
func AddCompact(p, q PMF, maxPulses int) PMF {
	if maxPulses < 1 {
		panic(fmt.Sprintf("pmf: AddCompact to %d pulses", maxPulses))
	}
	fold := func() PMF { return Add(p, q).Compact(maxPulses) }
	if len(p.pulses)*len(q.pulses) <= maxPulses {
		return fold()
	}
	lo, hi := p.Min()+q.Min(), p.Max()+q.Max()
	span := hi - lo
	if math.IsInf(lo, 0) || math.IsInf(hi, 0) || span == 0 || minProb(p)*minProb(q) == 0 {
		return fold()
	}
	// Sums closer than tol may share a pulse of Add; sums further
	// apart never do, because the merge tolerance of finishSorted is
	// relative to a value no larger than max(|lo|, |hi|).
	tol := mergeTol * math.Max(math.Abs(lo), math.Abs(hi))
	var cells []sumCell
	for first := true; ; first = false {
		width := span / float64(maxPulses)
		k0, k1 := math.Floor(lo/width), math.Floor(hi/width)
		if !(math.Abs(k0) < 1<<52 && math.Abs(k1) < 1<<52) {
			return fold()
		}
		n := int(k1-k0) + 1
		if first && !manySums(p, q, width, int64(k0), n, maxPulses, tol) {
			return fold()
		}
		cells = binSums(cells, p, q, width, int64(k0), n)
		out := cellPulses(cells)
		if out.Len() <= maxPulses {
			if in := instrPtr.Load(); in != nil {
				in.truncated.Inc()
			}
			return out
		}
		span *= 1.1
	}
}

// minProb returns the smallest pulse probability of p.
func minProb(p PMF) float64 {
	m := math.Inf(1)
	for _, pl := range p.pulses {
		m = math.Min(m, pl.Prob)
	}
	return m
}

// sumRows returns p's and q's pulses as the rows and the columns of their
// sum matrix: one row per pulse of the shorter operand.
func sumRows(p, q PMF) (outer, inner []Pulse) {
	if len(p.pulses) > len(q.pulses) {
		return q.pulses, p.pulses
	}
	return p.pulses, q.pulses
}

// binSums accumulates every pairwise sum of p and q into n cells of
// the given width, cell k holding the sums v with
// floor(v/width) == k0+k, reusing cells' array when it is large enough.
func binSums(cells []sumCell, p, q PMF, width float64, k0 int64, n int) []sumCell {
	if cap(cells) < n {
		cells = make([]sumCell, n)
	}
	cells = cells[:n]
	clear(cells)
	outer, inner := sumRows(p, q)
	for _, a := range outer {
		for _, b := range inner {
			v := a.Value + b.Value
			pr := a.Prob * b.Prob
			c := &cells[int64(math.Floor(v/width))-k0]
			c.mass += pr
			c.sum += pr * v
		}
	}
	return cells
}

// manySums reports whether the pairwise sums of p and q take more than
// limit values that Add keeps apart. The sums of any set of rows bound
// that count from below, so it bins rows into the n cells of binSums
// and stops as soon as the bound exceeds limit. It starts with rows
// holding twice limit sums (about what spread-out sums need) and
// doubles their number up to every row, each round taking rows evenly
// spaced over the shorter operand so that they reach the whole span
// even when the other operand is narrow; binning a row again changes
// nothing. The bound counts one value for the first non-empty cell, one
// more for every cell whose sums spread over more than tol, and one
// more for every gap above tol between neighbouring non-empty cells,
// since each such spread or gap holds the first value of a pulse of its
// own. The first round usually suffices; a lattice of few distinct sums
// bins every row.
func manySums(p, q PMF, width float64, k0 int64, n, limit int, tol float64) bool {
	lo, hi := make([]float64, n), make([]float64, n)
	for k := range lo {
		lo[k], hi[k] = math.Inf(1), math.Inf(-1)
	}
	outer, inner := sumRows(p, q)
	for rows := 2*limit/len(inner) + 1; ; rows *= 2 {
		rows = min(rows, len(outer))
		for r := 0; r < rows; r++ {
			a := outer[r*len(outer)/rows].Value
			for _, b := range inner {
				v := a + b.Value
				k := int64(math.Floor(v/width)) - k0
				lo[k], hi[k] = min(lo[k], v), max(hi[k], v)
			}
		}
		count := 0
		prevHi := 0.0
		for k := range lo {
			if lo[k] > hi[k] {
				continue
			}
			if count == 0 || lo[k]-prevHi > tol {
				count++
			}
			if hi[k]-lo[k] > tol {
				count++
			}
			prevHi = hi[k]
		}
		if count > limit {
			return true
		}
		if rows == len(outer) {
			return false
		}
	}
}

// cellPulses turns the non-empty cells, in ascending order, into the
// compacted PMF: one pulse per cell at its conditional mean, normalized
// as Rebin normalizes.
func cellPulses(cells []sumCell) PMF {
	ps := make([]Pulse, 0, len(cells))
	for _, c := range cells {
		if c.mass > 0 {
			ps = append(ps, Pulse{Value: c.sum / c.mass, Prob: c.mass})
		}
	}
	total := 0.0
	for _, c := range ps {
		total += c.Prob
	}
	out, err := finishSorted(ps, total)
	if err != nil {
		panic(fmt.Sprintf("pmf: AddCompact: %v", err))
	}
	return out
}
