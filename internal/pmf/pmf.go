// Package pmf implements the discrete probability-mass-function algebra
// that underpins the paper's stochastic Stage-I model.
//
// The paper represents the execution time of every (application,
// processor-type) pair and the availability of every processor type as a
// PMF — a finite set of (value, probability) pulses. Stage I then needs a
// handful of algebraic operations on these PMFs:
//
//   - pulse-wise transformation (paper Eq. 2 rescales each execution-time
//     pulse to its parallel value on n processors),
//   - cross-combination of two independent PMFs under an arbitrary binary
//     operator (completion time = execution time / availability),
//   - P(X <= delta) for the deadline probability, and products of such
//     probabilities across independent applications,
//   - expectation and spread for the Table V estimates.
//
// A PMF is immutable after construction; every operation returns a new
// PMF. Pulses are kept sorted by value with strictly positive
// probabilities summing to 1 (within a small tolerance that Validate
// enforces).
package pmf

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Pulse is a single atom of probability mass at Value.
type Pulse struct {
	Value float64
	Prob  float64
}

// PMF is a finite discrete probability distribution. The zero value is
// an empty, invalid PMF; construct with New, MustNew, or a sampler.
type PMF struct {
	pulses []Pulse
	// cdf caches the running sum of pulse probabilities (cdf[i] =
	// P(X <= pulses[i].Value)) so PrLE and Quantile are binary searches
	// instead of linear scans. Built once at construction; immutable.
	cdf []float64
}

// probTol is the tolerance within which pulse probabilities must sum to 1.
const probTol = 1e-9

// mergeTol is the relative tolerance under which two pulse values are
// considered equal and their masses merged.
const mergeTol = 1e-12

// New builds a PMF from pulses. Pulses with equal values (within a tiny
// relative tolerance) are merged, zero-probability pulses are dropped,
// and the result is normalized to total mass 1. It returns an error if
// pulses is empty, a probability is negative, a value is not finite, or
// the total mass is zero.
func New(pulses []Pulse) (PMF, error) {
	if len(pulses) == 0 {
		return PMF{}, fmt.Errorf("pmf: no pulses")
	}
	ps := append([]Pulse(nil), pulses...)
	total := 0.0
	for _, p := range ps {
		if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
			return PMF{}, fmt.Errorf("pmf: non-finite pulse value %v", p.Value)
		}
		if p.Prob < 0 || math.IsNaN(p.Prob) {
			return PMF{}, fmt.Errorf("pmf: invalid pulse probability %v", p.Prob)
		}
		total += p.Prob
	}
	if total <= 0 {
		return PMF{}, fmt.Errorf("pmf: total probability mass is zero")
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Value < ps[j].Value })
	return finishSorted(ps, total)
}

// finishSorted completes construction from pulses already in ascending
// value order: it merges close values, drops zero-probability pulses,
// normalizes by total, and caches the running CDF. It takes ownership of
// ps. This is the internal constructor shared by New and the merge-based
// Combine fast path, which emits pulses in sorted order and therefore
// skips the sort entirely.
func finishSorted(ps []Pulse, total float64) (PMF, error) {
	out := ps[:0]
	for _, p := range ps {
		if p.Prob == 0 {
			continue
		}
		if n := len(out); n > 0 && closeValues(out[n-1].Value, p.Value) {
			out[n-1].Prob += p.Prob
			continue
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return PMF{}, fmt.Errorf("pmf: all pulses have zero probability")
	}
	cdf := make([]float64, len(out))
	s := 0.0
	for i := range out {
		out[i].Prob /= total
		s += out[i].Prob
		cdf[i] = s
	}
	return PMF{pulses: out, cdf: cdf}, nil
}

// MustNew is New but panics on error; intended for literals in tests,
// examples, and the embedded paper data, where the input is known valid.
func MustNew(pulses []Pulse) PMF {
	p, err := New(pulses)
	if err != nil {
		panic(err)
	}
	return p
}

// Point returns the degenerate PMF with all mass at v.
func Point(v float64) PMF {
	return MustNew([]Pulse{{Value: v, Prob: 1}})
}

func closeValues(a, b float64) bool {
	d := math.Abs(a - b)
	if d == 0 {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= mergeTol*scale
}

// Len returns the number of pulses.
func (p PMF) Len() int { return len(p.pulses) }

// IsZero reports whether p is the invalid zero PMF.
func (p PMF) IsZero() bool { return len(p.pulses) == 0 }

// Pulses returns a copy of the pulses in ascending value order.
func (p PMF) Pulses() []Pulse {
	return append([]Pulse(nil), p.pulses...)
}

// At returns pulse i (in ascending value order).
func (p PMF) At(i int) Pulse { return p.pulses[i] }

// Validate checks the internal invariants: at least one pulse, sorted
// strictly increasing values, strictly positive probabilities, total mass
// within probTol of 1. All constructors establish these; Validate exists
// for tests and for data deserialized from outside.
func (p PMF) Validate() error {
	if len(p.pulses) == 0 {
		return fmt.Errorf("pmf: empty")
	}
	total := 0.0
	for i, pl := range p.pulses {
		if pl.Prob <= 0 {
			return fmt.Errorf("pmf: pulse %d has non-positive probability %v", i, pl.Prob)
		}
		if i > 0 && p.pulses[i-1].Value >= pl.Value {
			return fmt.Errorf("pmf: pulses not strictly increasing at %d", i)
		}
		total += pl.Prob
	}
	if math.Abs(total-1) > probTol {
		return fmt.Errorf("pmf: total mass %v != 1", total)
	}
	return nil
}

// Mean returns the expectation E[X].
func (p PMF) Mean() float64 {
	s := 0.0
	for _, pl := range p.pulses {
		s += pl.Value * pl.Prob
	}
	return s
}

// Variance returns Var[X].
func (p PMF) Variance() float64 {
	m := p.Mean()
	s := 0.0
	for _, pl := range p.pulses {
		d := pl.Value - m
		s += d * d * pl.Prob
	}
	return s
}

// StdDev returns the standard deviation of X.
func (p PMF) StdDev() float64 { return math.Sqrt(p.Variance()) }

// Min returns the smallest support value.
func (p PMF) Min() float64 { return p.pulses[0].Value }

// Max returns the largest support value.
func (p PMF) Max() float64 { return p.pulses[len(p.pulses)-1].Value }

// PrLE returns P(X <= x) — the paper's per-application deadline
// probability when x is the system deadline. It is a binary search over
// the cached running CDF, O(log n).
func (p PMF) PrLE(x float64) float64 {
	i := sort.Search(len(p.pulses), func(i int) bool { return p.pulses[i].Value > x })
	if i == 0 {
		return 0
	}
	s := p.cdf[i-1]
	if s > 1 {
		s = 1
	}
	return s
}

// Quantile returns the smallest support value v with P(X <= v) >= q.
// It panics unless 0 < q <= 1. It is a binary search over the cached
// running CDF, O(log n).
func (p PMF) Quantile(q float64) float64 {
	if q <= 0 || q > 1 {
		panic(fmt.Sprintf("pmf: quantile probability %v out of (0,1]", q))
	}
	i := sort.Search(len(p.cdf), func(i int) bool { return p.cdf[i] >= q-probTol })
	if i < len(p.pulses) {
		return p.pulses[i].Value
	}
	return p.Max()
}

// Map returns the PMF of f(X). Colliding mapped values are merged. f must
// produce finite values.
func (p PMF) Map(f func(float64) float64) PMF {
	ps := make([]Pulse, len(p.pulses))
	for i, pl := range p.pulses {
		ps[i] = Pulse{Value: f(pl.Value), Prob: pl.Prob}
	}
	return MustNew(ps)
}

// Scale returns the PMF of c*X. It panics if c is zero or not finite.
func (p PMF) Scale(c float64) PMF {
	if c == 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		panic(fmt.Sprintf("pmf: invalid scale factor %v", c))
	}
	return p.Map(func(v float64) float64 { return c * v })
}

// Combine returns the PMF of f(X, Y) for independent X ~ p and Y ~ q,
// formed by the cross product of pulses. This is the general operation
// behind Add, Max, and Div.
//
// When f is monotone in y over q's support for every fixed pulse of p
// (true for all the named operators on their valid inputs), the cross
// product is laid out as pre-sorted rows and merged in
// (value, row, position) order, so the result is built in sorted order
// and the O(nm log nm) sort inside New is skipped. Operators that are
// not row-monotone fall back to the naive cross product transparently;
// both paths produce the same PMF.
//
// Below smallCombinePulses output pulses the merge bookkeeping (row
// orientation, monotonicity checks, cursor scans) costs more than just
// sorting, so tiny combines use a direct product loop instead.
func Combine(p, q PMF, f func(x, y float64) float64) PMF {
	in := instrPtr.Load()
	if n := len(p.pulses) * len(q.pulses); n > 0 && n <= smallCombinePulses {
		if out, ok := combineSmall(p, q, f); ok {
			if in != nil {
				in.small.Inc()
			}
			return out
		}
	} else if out, ok := combineMerge(p, q, f); ok {
		if in != nil {
			in.fast.Inc()
		}
		return out
	}
	if in != nil {
		in.fallback.Inc()
	}
	ps := make([]Pulse, 0, len(p.pulses)*len(q.pulses))
	for _, a := range p.pulses {
		for _, b := range q.pulses {
			ps = append(ps, Pulse{Value: f(a.Value, b.Value), Prob: a.Prob * b.Prob})
		}
	}
	return MustNew(ps)
}

// Add returns the PMF of X + Y (convolution) for independent X, Y.
func Add(p, q PMF) PMF {
	return Combine(p, q, func(x, y float64) float64 { return x + y })
}

// Div returns the PMF of X / Y for independent X, Y. It panics if q has
// support at zero. This is the completion-time operation: execution time
// divided by fractional availability.
func Div(p, q PMF) PMF {
	for _, b := range q.pulses {
		if b.Value == 0 {
			panic("pmf: division by PMF with support at zero")
		}
	}
	return Combine(p, q, func(x, y float64) float64 { return x / y })
}

// Max returns the PMF of max(X, Y) for independent X, Y — the completion
// time of two independent parallel activities, used to form the system
// makespan PMF. Unlike the generic Combine, the maximum never leaves
// the union of the two supports, so it is computed as an O(n+m) merge
// with the CDF product P(max <= x) = F_X(x) F_Y(x) rather than an
// O(n*m) cross product — the difference between milliseconds and tens
// of seconds when composing DAG completion chains at DAGMaxPulses.
func Max(p, q PMF) PMF {
	if p.IsZero() || q.IsZero() {
		return Combine(p, q, math.Max)
	}
	ps := make([]Pulse, 0, len(p.pulses)+len(q.pulses))
	var fp, fq, prev float64
	i, j := 0, 0
	for i < len(p.pulses) || j < len(q.pulses) {
		var v float64
		if j >= len(q.pulses) || (i < len(p.pulses) && p.pulses[i].Value < q.pulses[j].Value) {
			v = p.pulses[i].Value
		} else {
			v = q.pulses[j].Value
		}
		for i < len(p.pulses) && p.pulses[i].Value <= v {
			fp += p.pulses[i].Prob
			i++
		}
		for j < len(q.pulses) && q.pulses[j].Value <= v {
			fq += q.pulses[j].Prob
			j++
		}
		cdf := fp * fq
		if d := cdf - prev; d > 0 {
			ps = append(ps, Pulse{Value: v, Prob: d})
		}
		prev = cdf
	}
	return MustNew(ps)
}

// String renders the PMF compactly, e.g. "{100:0.25 200:0.75}".
func (p PMF) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, pl := range p.pulses {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.6g:%.6g", pl.Value, pl.Prob)
	}
	b.WriteByte('}')
	return b.String()
}
