package pmf

import (
	"math"
	"strings"
	"testing"

	"cdsf/internal/stats"
)

// latticePMF builds a PMF whose values are exact multiples of step so
// quantization is lossless and grid results can be compared against
// the sparse reference directly.
func latticePMF(t *testing.T, step float64, bins []int64, probs []float64) PMF {
	t.Helper()
	ps := make([]Pulse, len(bins))
	for i, b := range bins {
		ps[i] = Pulse{Value: float64(b) * step, Prob: probs[i]}
	}
	return MustNew(ps)
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestToGridRoundTrip(t *testing.T) {
	p := latticePMF(t, 0.5, []int64{2, 5, 9, 20}, []float64{0.1, 0.4, 0.3, 0.2})
	g := p.ToGrid(0.5)
	defer g.Release()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.Min() != 1 || g.Max() != 10 {
		t.Fatalf("support [%v,%v], want [1,10]", g.Min(), g.Max())
	}
	q := g.ToPMF()
	if q.Len() != p.Len() {
		t.Fatalf("round trip %d pulses, want %d", q.Len(), p.Len())
	}
	for i := 0; i < p.Len(); i++ {
		if !almostEqual(q.At(i).Value, p.At(i).Value, 1e-12) || !almostEqual(q.At(i).Prob, p.At(i).Prob, 1e-12) {
			t.Fatalf("pulse %d: %v vs %v", i, q.At(i), p.At(i))
		}
	}
}

func TestToGridMergesBins(t *testing.T) {
	// Values 1.01 and 0.99 both round to bin 1 at step 1.
	p := MustNew([]Pulse{{Value: 0.99, Prob: 0.5}, {Value: 1.01, Prob: 0.3}, {Value: 3, Prob: 0.2}})
	g := p.ToGrid(1)
	defer g.Release()
	if g.Len() != 3 { // bins 1, 2 (zero), 3
		t.Fatalf("Len = %d, want 3", g.Len())
	}
	if got := g.PrLE(1); !almostEqual(got, 0.8, 1e-12) {
		t.Fatalf("PrLE(1) = %v, want 0.8", got)
	}
}

func TestGridMomentsAndQuantile(t *testing.T) {
	p := latticePMF(t, 0.25, []int64{4, 8, 16}, []float64{0.25, 0.5, 0.25})
	g := p.ToGrid(0.25)
	defer g.Release()
	if !almostEqual(g.Mean(), p.Mean(), 1e-12) {
		t.Fatalf("Mean %v vs %v", g.Mean(), p.Mean())
	}
	if !almostEqual(g.Variance(), p.Variance(), 1e-12) {
		t.Fatalf("Variance %v vs %v", g.Variance(), p.Variance())
	}
	if !almostEqual(g.StdDev(), p.StdDev(), 1e-12) {
		t.Fatalf("StdDev %v vs %v", g.StdDev(), p.StdDev())
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.99, 1} {
		if gq, pq := g.Quantile(q), p.Quantile(q); gq != pq {
			t.Fatalf("Quantile(%v) = %v, want %v", q, gq, pq)
		}
	}
}

func TestGridAddExactOnLattice(t *testing.T) {
	a := latticePMF(t, 0.5, []int64{0, 2, 4}, []float64{0.2, 0.5, 0.3})
	b := latticePMF(t, 0.5, []int64{1, 3}, []float64{0.6, 0.4})
	want := Add(a, b)
	ga, gb := a.ToGrid(0.5), b.ToGrid(0.5)
	defer ga.Release()
	defer gb.Release()
	sum := ga.Add(gb)
	defer sum.Release()
	got := sum.ToPMF()
	if got.Len() != want.Len() {
		t.Fatalf("Add lengths %d vs %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if !almostEqual(got.At(i).Value, want.At(i).Value, 1e-12) || !almostEqual(got.At(i).Prob, want.At(i).Prob, 1e-9) {
			t.Fatalf("Add pulse %d: %v vs %v", i, got.At(i), want.At(i))
		}
	}
}

func TestGridMaxMinExactOnLattice(t *testing.T) {
	a := latticePMF(t, 1, []int64{1, 4, 7}, []float64{0.3, 0.4, 0.3})
	b := latticePMF(t, 1, []int64{2, 5}, []float64{0.5, 0.5})
	ga, gb := a.ToGrid(1), b.ToGrid(1)
	defer ga.Release()
	defer gb.Release()

	gmax := ga.MaxWith(gb)
	defer gmax.Release()
	wantMax := Max(a, b)
	for _, x := range []float64{1, 2, 3, 4, 5, 6, 7} {
		if g, w := gmax.PrLE(x), wantMax.PrLE(x); !almostEqual(g, w, 1e-9) {
			t.Fatalf("Max PrLE(%v) = %v, want %v", x, g, w)
		}
	}
	if !almostEqual(gmax.Mean(), wantMax.Mean(), 1e-9) {
		t.Fatalf("Max mean %v vs %v", gmax.Mean(), wantMax.Mean())
	}
}

// TestGridMaxDisjointSupports exercises the CDF-product kernel where
// one operand's support lies entirely below the other's.
func TestGridMaxDisjointSupports(t *testing.T) {
	a := latticePMF(t, 1, []int64{1, 2}, []float64{0.5, 0.5})
	b := latticePMF(t, 1, []int64{10, 11}, []float64{0.5, 0.5})
	ga, gb := a.ToGrid(1), b.ToGrid(1)
	defer ga.Release()
	defer gb.Release()
	gmax := ga.MaxWith(gb)
	defer gmax.Release()
	// max(X, Y) = Y exactly.
	if gmax.Min() != 10 || gmax.Max() != 11 {
		t.Fatalf("support [%v,%v], want [10,11]", gmax.Min(), gmax.Max())
	}
	if !almostEqual(gmax.PrLE(10), 0.5, 1e-12) {
		t.Fatalf("PrLE(10) = %v", gmax.PrLE(10))
	}
}

func TestGridDivPMFCompletionShape(t *testing.T) {
	// The completion-time operation of Stage I: a discretized normal
	// execution time over a 3-pulse availability, grid vs sparse.
	exec := Discretize(stats.NewNormal(1000, 100), 200)
	avail := MustNew([]Pulse{{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1, Prob: 0.5}})
	want := Div(exec, avail)

	step := 2.0
	g := exec.ToGrid(step)
	defer g.Release()
	c := g.DivPMF(avail)
	defer c.Release()

	// Quantizing the numerator moves it by <= step/2, which the division
	// stretches by at most 1/min(avail); re-quantizing the quotient adds
	// another step/2.
	bound := step/2/0.25 + step/2
	if !almostEqual(c.Mean(), want.Mean(), bound) {
		t.Fatalf("DivPMF mean %v vs %v (bound %v)", c.Mean(), want.Mean(), bound)
	}
	for _, x := range []float64{1000, 2000, 3000, 4500} {
		lo := want.PrLE(x-bound) - 1e-9
		hi := want.PrLE(x+bound) + 1e-9
		if got := c.PrLE(x); got < lo || got > hi {
			t.Fatalf("DivPMF PrLE(%v) = %v outside [%v,%v]", x, got, lo, hi)
		}
	}
}

func TestGridCombinePMFGeneral(t *testing.T) {
	a := latticePMF(t, 1, []int64{1, 2, 3}, []float64{0.25, 0.5, 0.25})
	q := MustNew([]Pulse{{Value: 2, Prob: 0.5}, {Value: 3, Prob: 0.5}})
	g := a.ToGrid(1)
	defer g.Release()
	mul := func(x, y float64) float64 { return x * y }
	got := g.CombinePMF(q, mul)
	defer got.Release()
	want := Combine(a, q, mul)
	if !almostEqual(got.Mean(), want.Mean(), 0.5+1e-9) {
		t.Fatalf("CombinePMF mean %v vs %v", got.Mean(), want.Mean())
	}
	if got.Min() != want.Min() || got.Max() != want.Max() {
		t.Fatalf("support [%v,%v] vs [%v,%v]", got.Min(), got.Max(), want.Min(), want.Max())
	}
}

func TestGridReleaseAndReuse(t *testing.T) {
	p := latticePMF(t, 1, []int64{1, 2, 3}, []float64{0.25, 0.5, 0.25})
	// Repeated build/release cycles must keep producing valid grids
	// (exercises the pooled-buffer zeroing).
	for i := 0; i < 10; i++ {
		g := p.ToGrid(1)
		h := p.ToGrid(1)
		s := g.Add(h)
		if err := s.Validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !almostEqual(s.Mean(), 2*p.Mean(), 1e-9) {
			t.Fatalf("iteration %d: mean %v", i, s.Mean())
		}
		s.Release()
		h.Release()
		g.Release()
	}
}

// TestGridReleasePoisoning pins the pool-hazard contract: a second
// Release panics instead of silently double-freeing the buffers, and
// any use of a released grid panics instead of reading recycled
// memory.
func TestGridReleasePoisoning(t *testing.T) {
	p := latticePMF(t, 1, []int64{1, 2, 3}, []float64{0.25, 0.5, 0.25})
	mustPanicWith := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s did not panic", name)
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, want) {
				t.Fatalf("%s panicked with %v, want message containing %q", name, r, want)
			}
		}()
		f()
	}

	g := p.ToGrid(1)
	g.Release()
	mustPanicWith("double Release", "Release called twice", func() { g.Release() })

	h := p.ToGrid(1)
	h.Release()
	mustPanicWith("Mean after Release", "use of a released Grid", func() { h.Mean() })
	mustPanicWith("PrLE after Release", "use of a released Grid", func() { h.PrLE(2) })
	mustPanicWith("ToPMF after Release", "use of a released Grid", func() { h.ToPMF() })
	live := p.ToGrid(1)
	defer live.Release()
	mustPanicWith("Add with released operand", "use of a released Grid", func() { live.Add(h) })
}

func TestGridString(t *testing.T) {
	p := latticePMF(t, 1, []int64{1, 3}, []float64{0.5, 0.5})
	g := p.ToGrid(1)
	defer g.Release()
	s := g.String()
	if !strings.Contains(s, "grid{") || !strings.Contains(s, "bins=3") {
		t.Fatalf("String = %q", s)
	}
}

func TestGridPanics(t *testing.T) {
	p := latticePMF(t, 1, []int64{1, 2}, []float64{0.5, 0.5})
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("ToGrid(0)", func() { p.ToGrid(0) })
	mustPanic("ToGrid(NaN)", func() { p.ToGrid(math.NaN()) })
	mustPanic("ToGrid of zero PMF", func() { PMF{}.ToGrid(1) })
	mustPanic("bin cap", func() {
		wide := MustNew([]Pulse{{Value: 0, Prob: 0.5}, {Value: 1e12, Prob: 0.5}})
		wide.ToGrid(1)
	})
	mustPanic("step mismatch", func() {
		g, h := p.ToGrid(1), p.ToGrid(0.5)
		defer g.Release()
		defer h.Release()
		g.Add(h)
	})
	mustPanic("div by zero support", func() {
		g := p.ToGrid(1)
		defer g.Release()
		g.DivPMF(MustNew([]Pulse{{Value: 0, Prob: 0.5}, {Value: 1, Prob: 0.5}}))
	})
	mustPanic("quantile out of range", func() {
		g := p.ToGrid(1)
		defer g.Release()
		g.Quantile(0)
	})
	mustPanic("non-finite combine", func() {
		g := p.ToGrid(1)
		defer g.Release()
		g.CombinePMF(p, func(x, y float64) float64 { return math.Inf(1) })
	})
}

func TestGridValidateErrors(t *testing.T) {
	var nilGrid *Grid
	if err := nilGrid.Validate(); err == nil {
		t.Fatal("nil grid validated")
	}
	if err := (&Grid{}).Validate(); err == nil {
		t.Fatal("empty grid validated")
	}
	bad := &Grid{step: 1, mass: []float64{0.5, 0.5}, cdf: []float64{0.5}}
	if err := bad.Validate(); err == nil {
		t.Fatal("grid with short cdf validated")
	}
}

func TestBackendParseAndText(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"", BackendSparse, true},
		{"sparse", BackendSparse, true},
		{"grid", BackendGrid, true},
		{"dense", "", false},
	} {
		got, err := ParseBackend(tc.in)
		if tc.ok != (err == nil) {
			t.Fatalf("ParseBackend(%q) err = %v", tc.in, err)
		}
		if tc.ok && got != tc.want {
			t.Fatalf("ParseBackend(%q) = %q", tc.in, got)
		}
	}
	var b Backend
	if err := b.UnmarshalText([]byte("grid")); err != nil || b != BackendGrid {
		t.Fatalf("UnmarshalText: %v %q", nil, b)
	}
	if err := b.UnmarshalText([]byte("nope")); err == nil {
		t.Fatal("UnmarshalText accepted junk")
	}
	if txt, err := BackendSparse.MarshalText(); err != nil || string(txt) != "sparse" {
		t.Fatalf("MarshalText: %q %v", txt, err)
	}
	if _, err := Backend("junk").MarshalText(); err == nil {
		t.Fatal("MarshalText accepted junk")
	}
	if Backend("").String() != "sparse" || !BackendGrid.IsGrid() || Backend("").IsGrid() {
		t.Fatal("Backend zero-value semantics broken")
	}
}
