package pmf

import (
	"math"
	"sort"
	"testing"

	"cdsf/internal/rng"
)

// naiveCombine is the straight-line reference implementation of Combine:
// the full cross product handed to the sorting constructor. The merge
// fast path must be indistinguishable from it.
func naiveCombine(p, q PMF, f func(x, y float64) float64) PMF {
	pulses := make([]Pulse, 0, p.Len()*q.Len())
	for _, a := range p.Pulses() {
		for _, b := range q.Pulses() {
			pulses = append(pulses, Pulse{Value: f(a.Value, b.Value), Prob: a.Prob * b.Prob})
		}
	}
	return MustNew(pulses)
}

// randomPMF draws a PMF with n pulses at positive values, the shape the
// scheduler's time and availability distributions take.
func randomPMF(r *rng.Source, n int) PMF {
	ps := make([]Pulse, n)
	for i := range ps {
		ps[i] = Pulse{Value: 0.5 + 100*r.Float64(), Prob: 0.05 + r.Float64()}
	}
	return MustNew(ps)
}

func samePMF(t *testing.T, got, want PMF, label string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d pulses, want %d\ngot  %v\nwant %v", label, got.Len(), want.Len(), got, want)
	}
	for i := 0; i < got.Len(); i++ {
		g, w := got.At(i), want.At(i)
		if math.Abs(g.Value-w.Value) > 1e-12*math.Max(1, math.Abs(w.Value)) {
			t.Fatalf("%s: pulse %d value %v, want %v", label, i, g.Value, w.Value)
		}
		if math.Abs(g.Prob-w.Prob) > 1e-12 {
			t.Fatalf("%s: pulse %d prob %v, want %v", label, i, g.Prob, w.Prob)
		}
	}
}

// TestCombineMergeMatchesNaive drives the merge fast path with every
// operator the scheduler uses and checks it is pulse-for-pulse identical
// to the naive cross product.
func TestCombineMergeMatchesNaive(t *testing.T) {
	ops := map[string]func(x, y float64) float64{
		"add": func(x, y float64) float64 { return x + y },
		"sub": func(x, y float64) float64 { return x - y },
		"mul": func(x, y float64) float64 { return x * y },
		"div": func(x, y float64) float64 { return x / y },
		"max": math.Max,
		"min": math.Min,
	}
	r := rng.New(99)
	for trial := 0; trial < 50; trial++ {
		p := randomPMF(r, 1+r.Intn(12))
		q := randomPMF(r, 1+r.Intn(12))
		for name, f := range ops {
			fast, ok := combineMerge(p, q, f)
			if !ok {
				t.Fatalf("trial %d op %s: merge path rejected monotone operator", trial, name)
			}
			samePMF(t, fast, naiveCombine(p, q, f), name)
		}
	}
}

// TestCombineFallbackNonMonotone checks that an operator producing
// non-monotone rows is routed to the naive path and still yields the
// correct distribution.
func TestCombineFallbackNonMonotone(t *testing.T) {
	f := func(x, y float64) float64 { return math.Abs(x - y) } // V-shaped rows
	p := MustNew([]Pulse{{1, 0.5}, {3, 0.5}})
	q := MustNew([]Pulse{{2, 0.25}, {3, 0.25}, {5, 0.5}})
	if _, ok := combineMerge(p, q, f); ok {
		// Non-monotone rows can slip through when a particular draw
		// happens to be monotone; this fixture is chosen so it does not.
		t.Fatal("merge path accepted a non-monotone row")
	}
	samePMF(t, Combine(p, q, f), naiveCombine(p, q, f), "abs-diff")
}

// TestCombineFallbackNonFinite checks that NaN/Inf results reject the
// fast path rather than corrupting the merge.
func TestCombineFallbackNonFinite(t *testing.T) {
	f := func(x, y float64) float64 {
		if x > 2 {
			return math.Inf(1)
		}
		return x + y
	}
	p := MustNew([]Pulse{{1, 0.5}, {4, 0.5}})
	q := MustNew([]Pulse{{2, 1}})
	if _, ok := combineMerge(p, q, f); ok {
		t.Fatal("merge path accepted non-finite values")
	}
}

// TestPrLEQuantileMatchLinearScan compares the binary-search PrLE and
// Quantile against straight-line linear scans over the pulses.
func TestPrLEQuantileMatchLinearScan(t *testing.T) {
	prLinear := func(p PMF, x float64) float64 {
		s := 0.0
		for _, pl := range p.Pulses() {
			if pl.Value <= x {
				s += pl.Prob
			}
		}
		if s > 1 {
			s = 1
		}
		return s
	}
	qLinear := func(p PMF, q float64) float64 {
		s := 0.0
		for _, pl := range p.Pulses() {
			s += pl.Prob
			if s >= q-probTol {
				return pl.Value
			}
		}
		return p.Max()
	}
	r := rng.New(3)
	for trial := 0; trial < 30; trial++ {
		p := randomPMF(r, 1+r.Intn(20))
		pulses := p.Pulses()
		if !sort.SliceIsSorted(pulses, func(i, j int) bool { return pulses[i].Value < pulses[j].Value }) {
			t.Fatal("pulses not sorted")
		}
		xs := []float64{p.Min() - 1, p.Min(), p.Max(), p.Max() + 1}
		for i := 0; i < 20; i++ {
			xs = append(xs, p.Min()+(p.Max()-p.Min())*r.Float64())
		}
		// Exact pulse values probe the boundary branches of the search.
		for _, pl := range pulses {
			xs = append(xs, pl.Value)
		}
		for _, x := range xs {
			if got, want := p.PrLE(x), prLinear(p, x); got != want {
				t.Fatalf("PrLE(%v) = %v, want %v (pmf %v)", x, got, want, p)
			}
		}
		for _, q := range []float64{1e-9, 0.25, 0.5, 0.9, 1} {
			if got, want := p.Quantile(q), qLinear(p, q); got != want {
				t.Fatalf("Quantile(%v) = %v, want %v (pmf %v)", q, got, want, p)
			}
		}
	}
}
