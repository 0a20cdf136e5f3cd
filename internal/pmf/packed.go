package pmf

import (
	"fmt"
	"math"
	"sort"
)

// PackedGrid is the storage form of a Grid for long-lived caches: it
// keeps only the occupied bins — their offsets, masses, and the dense
// CDF read at each of them — in plain heap slices detached from the
// buffer pool. Completion-time grids on synthetic instances occupy
// roughly one bin in nine of their span (an availability PMF of a few
// pulses scatters scaled copies of a sparse execution-time grid), so
// packing shrinks a retained cell several-fold.
//
// Every query is answered from the packed form with the same bits as
// the dense grid it came from: a zero-mass bin adds exactly +0 to the
// dense running sums, so the CDF at an occupied bin, the mean and
// variance sums, and the first bin reaching a quantile are all the
// same floats whether the zero bins are visited or skipped. Unpack
// restores a pooled dense grid for the kernels that need one. A
// PackedGrid is immutable and safe for concurrent use.
type PackedGrid struct {
	step  float64
	first int64 // bin 0 of the span is first*step, as Grid.first
	span  int   // bins spanned, interior zero-mass bins included
	off   []int32
	mass  []float64
	cdf   []float64 // cdf[j] = dense CDF at bin off[j]
}

var _ Dist = (*PackedGrid)(nil)

// Pack returns the packed, pool-free form of the grid. The receiver is
// unchanged and may be Released afterwards.
func (g *Grid) Pack() *PackedGrid {
	g.check()
	n := 0
	for _, m := range g.mass {
		if m != 0 {
			n++
		}
	}
	p := &PackedGrid{
		step:  g.step,
		first: g.first,
		span:  len(g.mass),
		off:   make([]int32, 0, n),
		mass:  make([]float64, 0, n),
		cdf:   make([]float64, 0, n),
	}
	for i, m := range g.mass {
		if m != 0 {
			p.off = append(p.off, int32(i))
			p.mass = append(p.mass, m)
			p.cdf = append(p.cdf, g.cdf[i])
		}
	}
	return p
}

// Unpack returns the dense grid the receiver was packed from, on
// pooled buffers: bit-identical mass and CDF, owned by the caller and
// meant to be Released.
func (p *PackedGrid) Unpack() *Grid {
	g := newGrid(p.step, p.first, p.span)
	for j, o := range p.off {
		g.mass[o] = p.mass[j]
	}
	return g.finish()
}

// Occupied returns the number of bins carrying mass: the entries the
// packed form stores.
func (p *PackedGrid) Occupied() int { return len(p.off) }

// Len returns the number of bins spanned, as the dense grid's Len.
func (p *PackedGrid) Len() int { return p.span }

// value returns the lattice value of span bin i.
func (p *PackedGrid) value(i int) float64 { return float64(p.first+int64(i)) * p.step }

// PrLE returns P(X <= x), bit-identical to Grid.PrLE: the dense CDF at
// the bin of x is the CDF at the last occupied bin at or below it,
// found by binary search.
func (p *PackedGrid) PrLE(x float64) float64 {
	k := int64(math.Floor(x/p.step+1e-9)) - p.first
	if k < 0 {
		return 0
	}
	j := len(p.cdf) - 1
	if k < int64(p.span) {
		j = sort.Search(len(p.off), func(j int) bool { return int64(p.off[j]) > k }) - 1
	}
	s := p.cdf[j]
	if s > 1 {
		s = 1
	}
	return s
}

// Quantile returns the smallest support value v with P(X <= v) >= q,
// bit-identical to Grid.Quantile (the dense search always stops on an
// occupied bin: the CDF only rises where mass is). It panics unless
// 0 < q <= 1.
func (p *PackedGrid) Quantile(q float64) float64 {
	if q <= 0 || q > 1 {
		panic(fmt.Sprintf("pmf: quantile probability %v out of (0,1]", q))
	}
	j := sort.SearchFloat64s(p.cdf, q-probTol)
	if j >= len(p.off) {
		return p.value(p.span - 1)
	}
	return p.value(int(p.off[j]))
}

// Mean returns E[X], summed over the occupied bins in the dense
// order, so bit-identical to Grid.Mean.
func (p *PackedGrid) Mean() float64 {
	sw, si := 0.0, 0.0
	for j, m := range p.mass {
		sw += m
		si += float64(p.off[j]) * m
	}
	return p.step * (float64(p.first)*sw + si)
}

// StdDev returns the standard deviation of X, bit-identical to
// Grid.StdDev.
func (p *PackedGrid) StdDev() float64 {
	mu := p.Mean()
	s := 0.0
	for j, m := range p.mass {
		d := p.value(int(p.off[j])) - mu
		s += d * d * m
	}
	return math.Sqrt(s)
}

// PackedPMF is the storage form of a PMF for long-lived caches: its
// pulses without the cached CDF, 16 instead of 24 bytes per pulse. The
// CDF is a running sum of the pulse probabilities in value order, so
// Unpack rebuilds it with the same additions in the same order and
// the rebuilt PMF answers every query with the original's bits; the
// queries of the packed form itself run the same sums inline. A
// PackedPMF is immutable and safe for concurrent use.
type PackedPMF struct {
	pulses []Pulse
}

var _ Dist = (*PackedPMF)(nil)

// Pack returns the packed form of p, sharing its (immutable) pulses.
func (p PMF) Pack() *PackedPMF { return &PackedPMF{pulses: p.pulses} }

// Unpack returns the PMF the receiver was packed from, with its CDF
// rebuilt bit-identically.
func (p *PackedPMF) Unpack() PMF {
	cdf := make([]float64, len(p.pulses))
	s := 0.0
	for i, pl := range p.pulses {
		s += pl.Prob
		cdf[i] = s
	}
	return PMF{pulses: p.pulses, cdf: cdf}
}

// Len returns the number of pulses.
func (p *PackedPMF) Len() int { return len(p.pulses) }

// PrLE returns P(X <= x), bit-identical to PMF.PrLE: the same running
// sum, stopped at the last pulse at or below x.
func (p *PackedPMF) PrLE(x float64) float64 {
	s := 0.0
	for _, pl := range p.pulses {
		if pl.Value > x {
			break
		}
		s += pl.Prob
	}
	if s > 1 {
		s = 1
	}
	return s
}

// Quantile returns the smallest support value v with P(X <= v) >= q,
// bit-identical to PMF.Quantile. It panics unless 0 < q <= 1.
func (p *PackedPMF) Quantile(q float64) float64 {
	if q <= 0 || q > 1 {
		panic(fmt.Sprintf("pmf: quantile probability %v out of (0,1]", q))
	}
	s := 0.0
	for _, pl := range p.pulses {
		if s += pl.Prob; s >= q-probTol {
			return pl.Value
		}
	}
	return p.pulses[len(p.pulses)-1].Value
}

// Mean returns E[X], bit-identical to PMF.Mean.
func (p *PackedPMF) Mean() float64 { return PMF{pulses: p.pulses}.Mean() }

// StdDev returns the standard deviation of X, bit-identical to
// PMF.StdDev.
func (p *PackedPMF) StdDev() float64 { return PMF{pulses: p.pulses}.StdDev() }
