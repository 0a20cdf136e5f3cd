package pmf

import (
	"fmt"
	"math"

	"cdsf/internal/rng"
	"cdsf/internal/stats"
)

// FromSamples builds a PMF by binning a sample into the given number of
// equal-width bins (empty bins are dropped). This mirrors the paper's
// construction of execution-time PMFs from sampled normal distributions.
// It panics if xs is empty or bins < 1.
func FromSamples(xs []float64, bins int) PMF {
	h := stats.NewHistogram(xs, bins)
	var ps []Pulse
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		ps = append(ps, Pulse{Value: h.BinCenter(i), Prob: float64(c) / float64(h.Total)})
	}
	return MustNew(ps)
}

// Sampled draws n variates from d using r and bins them into a PMF with
// the given number of bins. It panics if n < 1 or bins < 1.
func Sampled(d stats.Dist, n, bins int, r *rng.Source) PMF {
	if n < 1 {
		panic(fmt.Sprintf("pmf: Sampled with n=%d", n))
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	return FromSamples(xs, bins)
}

// Discretize converts a continuous distribution into a PMF with the
// given number of equiprobable pulses: pulse i sits at the conditional
// mean-approximating midpoint quantile of its probability slice. This is
// the deterministic counterpart of Sampled and makes the paper's
// headline probabilities reproducible bit-for-bit. It panics if
// pulses < 1.
func Discretize(d stats.Dist, pulses int) PMF {
	if pulses < 1 {
		panic(fmt.Sprintf("pmf: Discretize with %d pulses", pulses))
	}
	ps := make([]Pulse, pulses)
	w := 1.0 / float64(pulses)
	for i := range ps {
		q := (float64(i) + 0.5) * w
		ps[i] = Pulse{Value: d.Quantile(q), Prob: w}
	}
	return MustNew(ps)
}

// Rebin merges pulses into cells of the given width, concentrating each
// cell's mass at its probability-weighted mean value. It reduces pulse
// count after cross-combinations, which otherwise grow multiplicatively.
// It panics if width is not positive.
//
// The pulses are already sorted, so the cell keys floor(v/width) are
// non-decreasing and the cells accumulate in one sequential pass into
// the pooled scratch buffer shared with Combine — no map, no per-cell
// boxing, and (unlike the historical map-based version, which summed
// the normalizer in random iteration order) a bit-deterministic
// result.
func (p PMF) Rebin(width float64) PMF {
	if width <= 0 || math.IsNaN(width) {
		panic(fmt.Sprintf("pmf: Rebin with width %v", width))
	}
	sp := getScratch(len(p.pulses))
	defer pulseScratch.Put(sp)
	cells := (*sp)[:0]
	key := int64(math.Floor(p.pulses[0].Value / width))
	mass, sum := 0.0, 0.0
	for _, pl := range p.pulses {
		k := int64(math.Floor(pl.Value / width))
		if k != key {
			cells = append(cells, Pulse{Value: sum / mass, Prob: mass})
			key, mass, sum = k, 0, 0
		}
		mass += pl.Prob
		sum += pl.Prob * pl.Value
	}
	cells = append(cells, Pulse{Value: sum / mass, Prob: mass})

	// Cell means of increasing disjoint cells are strictly increasing,
	// so the scratch is already sorted; copy it out of the pool (the
	// constructor takes ownership of its argument) and finish.
	ps := make([]Pulse, len(cells))
	copy(ps, cells)
	total := 0.0
	for _, c := range ps {
		total += c.Prob
	}
	out, err := finishSorted(ps, total)
	if err != nil {
		panic(fmt.Sprintf("pmf: Rebin: %v", err))
	}
	return out
}

// Compact rebins p to at most maxPulses pulses (no-op when already
// small enough). The bin width is chosen from the support span. It
// panics if maxPulses < 1.
func (p PMF) Compact(maxPulses int) PMF {
	if maxPulses < 1 {
		panic(fmt.Sprintf("pmf: Compact to %d pulses", maxPulses))
	}
	if len(p.pulses) <= maxPulses {
		return p
	}
	if in := instrPtr.Load(); in != nil {
		in.truncated.Inc()
	}
	span := p.Max() - p.Min()
	if span == 0 {
		return p
	}
	q := p.Rebin(span / float64(maxPulses))
	// Guard against boundary effects leaving one extra cell.
	for q.Len() > maxPulses {
		span *= 1.1
		q = p.Rebin(span / float64(maxPulses))
	}
	return q
}

// Sample draws one variate from the PMF using r.
func (p PMF) Sample(r *rng.Source) float64 {
	u := r.Float64()
	s := 0.0
	for _, pl := range p.pulses {
		s += pl.Prob
		if u < s {
			return pl.Value
		}
	}
	return p.Max()
}

// Sampler returns an alias-method sampler for repeated draws; it is
// O(1) per draw versus O(n) for PMF.Sample.
func (p PMF) Sampler() *Sampler { return NewSampler(p) }

// Sampler draws from a fixed PMF in O(1) per draw using Vose's alias
// method.
type Sampler struct {
	values []float64
	prob   []float64
	alias  []int
}

// NewSampler builds the alias tables for p.
func NewSampler(p PMF) *Sampler {
	n := p.Len()
	s := &Sampler{
		values: make([]float64, n),
		prob:   make([]float64, n),
		alias:  make([]int, n),
	}
	scaled := make([]float64, n)
	var small, large []int
	for i, pl := range p.pulses {
		s.values[i] = pl.Value
		scaled[i] = pl.Prob * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		s.prob[l] = scaled[l]
		s.alias[l] = g
		scaled[g] = scaled[g] + scaled[l] - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	for _, i := range large {
		s.prob[i] = 1
	}
	for _, i := range small {
		s.prob[i] = 1
	}
	return s
}

// Sample draws one variate.
func (s *Sampler) Sample(r *rng.Source) float64 {
	i := r.Intn(len(s.values))
	if r.Float64() < s.prob[i] {
		return s.values[i]
	}
	return s.values[s.alias[i]]
}
