package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-width binning of a sample, used to turn empirical
// (or sampled) execution times into the discrete PMFs the paper's Stage-I
// model operates on.
type Histogram struct {
	// Lo is the left edge of the first bin.
	Lo float64
	// Width is the width of every bin; it is positive.
	Width float64
	// Counts holds the number of observations per bin.
	Counts []int
	// Total is the number of observations across all bins.
	Total int
}

// NewHistogram builds a histogram of xs with the given number of bins
// spanning [min(xs), max(xs)]. It panics if xs is empty or bins < 1.
func NewHistogram(xs []float64, bins int) *Histogram {
	if len(xs) == 0 {
		panic("stats: NewHistogram of empty sample")
	}
	if bins < 1 {
		panic(fmt.Sprintf("stats: NewHistogram with %d bins", bins))
	}
	lo, hi := Min(xs), Max(xs)
	if hi == lo {
		hi = lo + 1 // degenerate sample: single bin of width 1/bins
	}
	h := &Histogram{
		Lo:     lo,
		Width:  (hi - lo) / float64(bins),
		Counts: make([]int, bins),
	}
	for _, x := range xs {
		h.Observe(x)
	}
	return h
}

// Observe adds one observation, clamping into the edge bins so that no
// data is silently dropped.
func (h *Histogram) Observe(x float64) {
	i := int(math.Floor((x - h.Lo) / h.Width))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.Total++
}

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.Width
}
