package pmf

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// This file implements the dense fixed-grid PMF backend. A Grid
// quantizes a distribution once onto a uniform lattice of step s: bin
// k carries the mass of all values rounding to k*s. Because every
// origin is an integer multiple of the step, two grids with the same
// step are always aligned, and the operator kernels reduce to flat
// loops over dense float64 slices:
//
//   - Add is an exact integer-shifted convolution (no merge, no sort),
//   - Max is an O(n) product of running CDFs,
//   - PrLE is an O(1) indexed read off the cached dense CDF and
//     Quantile an O(log n) binary search,
//   - the Grid x sparse-PMF combine (used for the completion-time
//     division by availability) is a two-pass quantize-and-accumulate
//     scan with no intermediate pulse lists.
//
// Quantization moves each support point by at most step/2, and that is
// the only error the backend introduces: every kernel afterwards is
// exact on the lattice (see DESIGN.md, "Two PMF backends", for the
// per-operator bounds). The sparse PMF type remains the exact
// reference backend.
//
// Mass and CDF buffers come from a sync.Pool arena; Release returns a
// Grid's buffers to the pool once the caller has extracted what it
// needs. Releasing is optional — an unreleased Grid is ordinary
// garbage — but the hot paths (ra's evaluation-table build) release
// every temporary, making steady-state grid operations allocation-free.

// maxGridBins bounds the number of bins a single Grid may span
// (16 MiB of mass + 16 MiB of CDF at the cap). Exceeding it means the
// step is far too small for the value range; the constructors panic
// with the offending span rather than silently thrashing memory.
const maxGridBins = 1 << 21

// floatScratch recycles mass and CDF buffers across grid operations.
var floatScratch = sync.Pool{
	New: func() any { b := make([]float64, 0, 4096); return &b },
}

// getFloats returns a pooled zeroed slice of length n (kernels
// accumulate with +=, so zeroing is part of the contract).
func getFloats(n int) *[]float64 {
	bp := floatScratch.Get().(*[]float64)
	b := *bp
	if cap(b) < n {
		b = make([]float64, n)
	} else {
		b = b[:n]
		clear(b)
	}
	*bp = b
	return bp
}

// Grid is a distribution on the uniform lattice {(first+i)*step}: bin
// i holds P(X = (first+i)*step). Construct one with PMF.ToGrid or as
// the result of a grid operation; the zero value is invalid. Unlike
// PMF, a Grid is not normalized on construction — its total mass is
// whatever the source had (1 within tolerance) — and it is immutable
// through its methods but owns pooled buffers, so do not use a Grid
// after calling Release.
type Grid struct {
	step  float64
	first int64 // bin i's value is (first+i)*step
	mass  []float64
	cdf   []float64 // cdf[i] = sum of mass[0..i]

	// massBuf/cdfBuf are the pooled backing buffers (mass/cdf may be
	// sub-slices after tail trimming); nil after Release.
	massBuf, cdfBuf *[]float64

	// released marks a poisoned grid: its buffers are back in the pool
	// and may already belong to another grid, so every further use —
	// including a second Release — panics instead of silently reading
	// or double-freeing aliased memory.
	released bool
}

// binOf returns the lattice bin of value v under step.
func binOf(v, step float64) int64 {
	return int64(math.Round(v / step))
}

// checkStep panics unless step is a usable grid step.
func checkStep(step float64) {
	if step <= 0 || math.IsNaN(step) || math.IsInf(step, 0) {
		panic(fmt.Sprintf("pmf: invalid grid step %v", step))
	}
}

// checkBins panics when a prospective grid would exceed the bin cap.
func checkBins(n int64, step float64) {
	if n > maxGridBins {
		panic(fmt.Sprintf("pmf: grid of %d bins at step %v exceeds the %d-bin cap", n, step, maxGridBins))
	}
}

// newGrid allocates a pooled grid of n zeroed bins starting at first.
func newGrid(step float64, first int64, n int) *Grid {
	checkBins(int64(n), step)
	mb := getFloats(n)
	return &Grid{step: step, first: first, mass: *mb, massBuf: mb}
}

// finish trims zero-mass tails and caches the running CDF. It panics
// if the grid carries no mass (operations on valid inputs cannot
// produce that).
func (g *Grid) finish() *Grid {
	lo, hi := 0, len(g.mass)-1
	for lo <= hi && g.mass[lo] == 0 {
		lo++
	}
	for hi >= lo && g.mass[hi] == 0 {
		hi--
	}
	if lo > hi {
		panic("pmf: grid with zero total mass")
	}
	g.mass = g.mass[lo : hi+1]
	g.first += int64(lo)
	cb := getFloats(len(g.mass))
	cdf := *cb
	s := 0.0
	for i, m := range g.mass {
		s += m
		cdf[i] = s
	}
	g.cdf = cdf
	g.cdfBuf = cb
	return g
}

// Release returns the grid's buffers to the pool and poisons the grid:
// any later use, including a second Release, panics. (Before the
// poisoning, both misuses silently aliased pooled buffers — a
// double-Release handed the same buffer to two future grids, and a
// use-after-release read whatever grid owned the buffer next.)
// Releasing is optional; an unreleased grid is ordinary garbage.
func (g *Grid) Release() {
	if g.released {
		panic("pmf: Grid.Release called twice (buffers already returned to the pool)")
	}
	g.released = true
	if g.massBuf != nil {
		floatScratch.Put(g.massBuf)
		g.massBuf = nil
	}
	if g.cdfBuf != nil {
		floatScratch.Put(g.cdfBuf)
		g.cdfBuf = nil
	}
	g.mass, g.cdf = nil, nil
}

// check panics when the grid has been Released; it guards every read
// path so use-after-release fails loudly instead of observing pooled
// buffers that may now belong to a different grid.
func (g *Grid) check() {
	if g.released {
		panic("pmf: use of a released Grid (its buffers were returned to the pool)")
	}
}

// ToGrid quantizes the PMF onto the lattice of the given step: each
// pulse's mass lands in the bin its value rounds to. This is the one
// lossy conversion of the backend — every support point moves by at
// most step/2 — and the natural analogue of Compact (a 2000-pulse PMF
// becomes at most span/step bins in one O(n) pass). It panics if step
// is not positive and finite or the span exceeds the bin cap.
func (p PMF) ToGrid(step float64) *Grid {
	checkStep(step)
	if p.IsZero() {
		panic("pmf: ToGrid of zero PMF")
	}
	first := binOf(p.pulses[0].Value, step)
	last := binOf(p.pulses[len(p.pulses)-1].Value, step)
	g := newGrid(step, first, int(last-first+1))
	for _, pl := range p.pulses {
		g.mass[binOf(pl.Value, step)-first] += pl.Prob
	}
	return g.finish()
}

// ToPMF converts the grid back to the sparse representation: one pulse
// per occupied bin, renormalized to total mass 1 like every PMF
// constructor.
func (g *Grid) ToPMF() PMF {
	g.check()
	ps := make([]Pulse, 0, len(g.mass))
	total := 0.0
	for i, m := range g.mass {
		if m == 0 {
			continue
		}
		ps = append(ps, Pulse{Value: g.value(i), Prob: m})
		total += m
	}
	out, err := finishSorted(ps, total)
	if err != nil {
		panic(fmt.Sprintf("pmf: grid to PMF: %v", err))
	}
	return out
}

// value returns the lattice value of bin i.
func (g *Grid) value(i int) float64 { return float64(g.first+int64(i)) * g.step }

// last returns the bin index of the final bin.
func (g *Grid) last() int64 { return g.first + int64(len(g.mass)) - 1 }

// Len returns the number of bins spanned (including interior
// zero-mass bins; tails are always trimmed).
func (g *Grid) Len() int { g.check(); return len(g.mass) }

// Min returns the smallest support value.
func (g *Grid) Min() float64 { g.check(); return g.value(0) }

// Max returns the largest support value.
func (g *Grid) Max() float64 { g.check(); return g.value(len(g.mass) - 1) }

// total returns the grid's total mass (1 within tolerance for grids
// built from valid PMFs).
func (g *Grid) total() float64 { return g.cdf[len(g.cdf)-1] }

// cdfAt returns the CDF at bin k, extended by 0 below the support and
// the total mass above it.
func (g *Grid) cdfAt(k int64) float64 {
	i := k - g.first
	switch {
	case i < 0:
		return 0
	case i >= int64(len(g.cdf)):
		return g.total()
	}
	return g.cdf[i]
}

// Validate checks the internal invariants: a positive finite step,
// non-negative finite masses summing to 1 within probTol, occupied
// first and last bins, and a consistent cached CDF.
func (g *Grid) Validate() error {
	if g == nil || len(g.mass) == 0 {
		return fmt.Errorf("pmf: empty grid")
	}
	if g.step <= 0 || math.IsNaN(g.step) || math.IsInf(g.step, 0) {
		return fmt.Errorf("pmf: grid step %v", g.step)
	}
	total := 0.0
	for i, m := range g.mass {
		if m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("pmf: grid bin %d has mass %v", i, m)
		}
		total += m
	}
	if g.mass[0] == 0 || g.mass[len(g.mass)-1] == 0 {
		return fmt.Errorf("pmf: grid has an untrimmed zero-mass tail")
	}
	if math.Abs(total-1) > probTol {
		return fmt.Errorf("pmf: grid total mass %v != 1", total)
	}
	if len(g.cdf) != len(g.mass) {
		return fmt.Errorf("pmf: grid cdf has %d entries for %d bins", len(g.cdf), len(g.mass))
	}
	return nil
}

// Mean returns E[X].
func (g *Grid) Mean() float64 {
	g.check()
	sw, si := 0.0, 0.0
	for i, m := range g.mass {
		sw += m
		si += float64(i) * m
	}
	return g.step * (float64(g.first)*sw + si)
}

// Variance returns Var[X].
func (g *Grid) Variance() float64 {
	mu := g.Mean()
	s := 0.0
	for i, m := range g.mass {
		d := g.value(i) - mu
		s += d * d * m
	}
	return s
}

// StdDev returns the standard deviation of X.
func (g *Grid) StdDev() float64 { return math.Sqrt(g.Variance()) }

// PrLE returns P(X <= x): an O(1) indexed read off the dense CDF. The
// support values are exact lattice points, so x is compared against
// them with a tiny tolerance absorbing the division rounding.
func (g *Grid) PrLE(x float64) float64 {
	g.check()
	k := int64(math.Floor(x/g.step + 1e-9))
	s := g.cdfAt(k)
	if s > 1 {
		s = 1
	}
	return s
}

// Quantile returns the smallest support value v with P(X <= v) >= q,
// mirroring PMF.Quantile. It panics unless 0 < q <= 1.
func (g *Grid) Quantile(q float64) float64 {
	g.check()
	if q <= 0 || q > 1 {
		panic(fmt.Sprintf("pmf: quantile probability %v out of (0,1]", q))
	}
	i := sort.SearchFloat64s(g.cdf, q-probTol)
	if i >= len(g.mass) {
		return g.Max()
	}
	return g.value(i)
}

// sameStep panics unless g and h share a lattice step; cross-step
// operations would need a resampling policy the caller should choose
// explicitly (convert through ToPMF/ToGrid).
func (g *Grid) sameStep(h *Grid) {
	g.check()
	h.check()
	if g.step != h.step {
		panic(fmt.Sprintf("pmf: grid step mismatch %v vs %v", g.step, h.step))
	}
}

// Add returns the grid of X + Y for independent X, Y: an exact dense
// convolution — the output lattice origin is the sum of the input
// origins and every product mass lands on an exact lattice point, so
// no re-quantization happens.
func (g *Grid) Add(h *Grid) *Grid {
	g.sameStep(h)
	n := len(g.mass) + len(h.mass) - 1
	out := newGrid(g.step, g.first+h.first, n)
	for i, gm := range g.mass {
		if gm == 0 {
			continue
		}
		row := out.mass[i : i+len(h.mass)]
		for j, hm := range h.mass {
			row[j] += gm * hm
		}
	}
	return out.finish()
}

// MaxWith returns the grid of max(X, Y) for independent X, Y (named
// so the support accessor can keep PMF's Max spelling). On a shared
// lattice it is exact: P(max <= k) = F_X(k) * F_Y(k), so the mass at
// bin k is the first difference of the CDF product — one O(n) pass,
// no cross product.
func (g *Grid) MaxWith(h *Grid) *Grid {
	g.sameStep(h)
	first := g.first
	if h.first > first {
		first = h.first
	}
	last := g.last()
	if h.last() > last {
		last = h.last()
	}
	out := newGrid(g.step, first, int(last-first+1))
	prev := g.cdfAt(first-1) * h.cdfAt(first-1)
	for k := first; k <= last; k++ {
		cur := g.cdfAt(k) * h.cdfAt(k)
		m := cur - prev
		if m < 0 { // float rounding on the difference of near-equal products
			m = 0
		}
		out.mass[k-first] = m
		prev = cur
	}
	return out.finish()
}

// CombinePMF returns the grid of f(X, Y) where X is the grid and Y the
// sparse PMF q. This is how availability enters the grid backend:
// availability PMFs live on (0, 1], far below any completion-time
// step, so they stay sparse and each pulse scatters a scaled copy of
// the grid. f must produce finite values.
func (g *Grid) CombinePMF(q PMF, f func(x, y float64) float64) *Grid {
	g.check()
	if q.IsZero() {
		panic("pmf: grid combine with zero PMF")
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for i, gm := range g.mass {
		if gm == 0 {
			continue
		}
		x := g.value(i)
		for _, pl := range q.pulses {
			v := f(x, pl.Value)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				panic(fmt.Sprintf("pmf: grid combine produced %v", v))
			}
			k := binOf(v, g.step)
			if k < lo {
				lo = k
			}
			if k > hi {
				hi = k
			}
		}
	}
	if lo > hi {
		panic("pmf: grid combine of a zero-mass grid")
	}
	out := newGrid(g.step, lo, int(hi-lo+1))
	for _, pl := range q.pulses {
		y, py := pl.Value, pl.Prob
		for i, gm := range g.mass {
			if gm == 0 {
				continue
			}
			out.mass[binOf(f(g.value(i), y), g.step)-lo] += gm * py
		}
	}
	return out.finish()
}

// DivPMF returns the grid of X / Y for the grid X and sparse Y — the
// completion-time operation (execution time over fractional
// availability). It panics if q has support at zero.
func (g *Grid) DivPMF(q PMF) *Grid {
	for _, pl := range q.pulses {
		if pl.Value == 0 {
			panic("pmf: division by PMF with support at zero")
		}
	}
	return g.CombinePMF(q, func(x, y float64) float64 { return x / y })
}

// String renders the grid compactly, e.g. "grid{step=5 [100,200] bins=21}".
func (g *Grid) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "grid{step=%.6g [%.6g,%.6g] bins=%d}", g.step, g.Min(), g.Max(), len(g.mass))
	return b.String()
}
