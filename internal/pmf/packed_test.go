package pmf

import (
	"math"
	"testing"

	"cdsf/internal/stats"
)

// packTestGrids returns grids with the shapes the warm tier stores:
// completion-time grids whose interior is mostly zero-mass bins (a
// 50-pulse execution time on a fine lattice divided by a three-pulse
// availability), a single-bin grid, a dense convolution, and a Max
// result. The caller releases them.
func packTestGrids(t *testing.T) []*Grid {
	t.Helper()
	avail := MustNew([]Pulse{{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1, Prob: 0.5}})
	exec := Discretize(stats.NewNormal(1800, 180), 50)
	e := exec.ToGrid(1.5)
	defer e.Release()
	comp := e.DivPMF(avail)
	point := Point(42).ToGrid(2)
	a := latticePMF(t, 0.5, []int64{2, 5, 9, 20}, []float64{0.1, 0.4, 0.3, 0.2}).ToGrid(0.5)
	b := latticePMF(t, 0.5, []int64{1, 7, 30}, []float64{0.6, 0.3, 0.1}).ToGrid(0.5)
	defer a.Release()
	defer b.Release()
	return []*Grid{comp, point, a.Add(b), a.MaxWith(b)}
}

// TestPackUnpackBitIdentical pins the round trip: Unpack restores the
// packed grid's lattice, span, and every mass and CDF entry bit for
// bit, zero-mass interior bins included.
func TestPackUnpackBitIdentical(t *testing.T) {
	for n, g := range packTestGrids(t) {
		p := g.Pack()
		if p.Occupied() > p.Len() || p.Len() != g.Len() {
			t.Fatalf("grid %d: packed %d of %d bins, dense spans %d", n, p.Occupied(), p.Len(), g.Len())
		}
		u := p.Unpack()
		if u.step != g.step || u.first != g.first || len(u.mass) != len(g.mass) || len(u.cdf) != len(g.cdf) {
			t.Fatalf("grid %d: unpacked %v, want %v", n, u, g)
		}
		for i := range g.mass {
			if math.Float64bits(u.mass[i]) != math.Float64bits(g.mass[i]) ||
				math.Float64bits(u.cdf[i]) != math.Float64bits(g.cdf[i]) {
				t.Fatalf("grid %d bin %d: unpacked mass %x cdf %x, want %x %x",
					n, i, u.mass[i], u.cdf[i], g.mass[i], g.cdf[i])
			}
		}
		u.Release()
		g.Release()
	}
}

// TestPackedQueriesBitIdentical pins every Dist query of the packed
// form to the dense grid's bits: PrLE at, between, below and above the
// lattice points, Quantile over a sweep of levels, Mean, StdDev and
// Len.
func TestPackedQueriesBitIdentical(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for n, g := range packTestGrids(t) {
		p := g.Pack()
		if !same(p.Mean(), g.Mean()) || !same(p.StdDev(), g.StdDev()) {
			t.Errorf("grid %d: packed mean/sd %x/%x, dense %x/%x", n, p.Mean(), p.StdDev(), g.Mean(), g.StdDev())
		}
		if p.Len() != g.Len() {
			t.Errorf("grid %d: packed Len %d, dense %d", n, p.Len(), g.Len())
		}
		xs := []float64{math.Inf(-1), -1e12, g.Min() - 3*g.step, g.Max() + 3*g.step, 1e12, math.Inf(1)}
		for i := -2; i < g.Len()+2; i++ {
			v := g.value(0) + float64(i)*g.step
			xs = append(xs, v, v-g.step/2, v+g.step/3, math.Nextafter(v, math.Inf(-1)))
		}
		for _, x := range xs {
			if got, want := p.PrLE(x), g.PrLE(x); !same(got, want) {
				t.Fatalf("grid %d: packed PrLE(%v) = %x, dense %x", n, x, got, want)
			}
		}
		for i := 1; i <= 1000; i++ {
			q := float64(i) / 1000
			if got, want := p.Quantile(q), g.Quantile(q); !same(got, want) {
				t.Fatalf("grid %d: packed Quantile(%v) = %v, dense %v", n, q, got, want)
			}
		}
		for _, q := range []float64{1e-300, probTol / 2, 1 - probTol/2} {
			if got, want := p.Quantile(q), g.Quantile(q); !same(got, want) {
				t.Fatalf("grid %d: packed Quantile(%v) = %v, dense %v", n, q, got, want)
			}
		}
		g.Release()
	}
}

// TestGridPackSurvivesRelease pins the cache-retention contract: the
// packed form owns plain heap slices, so releasing the source grid
// leaves it fully usable, and each Unpack hands out a fresh pooled grid.
func TestGridPackSurvivesRelease(t *testing.T) {
	p := latticePMF(t, 1, []int64{1, 2, 7}, []float64{0.25, 0.5, 0.25})
	g := p.ToGrid(1)
	packed := g.Pack()
	g.Release()
	if packed.Occupied() != 3 || packed.Len() != 7 {
		t.Fatalf("packed %d of %d bins, want 3 of 7", packed.Occupied(), packed.Len())
	}
	if !almostEqual(packed.Mean(), p.Mean(), 1e-9) {
		t.Fatalf("packed mean after source released: %v, want %v", packed.Mean(), p.Mean())
	}
	for _, x := range []float64{0, 1, 2, 3, 6, 7, 8} {
		if got, want := packed.PrLE(x), p.PrLE(x); got != want {
			t.Fatalf("packed PrLE(%v) = %v, want %v", x, got, want)
		}
	}
	u1, u2 := packed.Unpack(), packed.Unpack()
	u1.Release()
	if err := u2.Validate(); err != nil {
		t.Fatalf("second unpack after releasing the first: %v", err)
	}
	u2.Release()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("packed Quantile(0) did not panic")
		}
	}()
	packed.Quantile(0)
}

// TestPackedPMFBitIdentical pins the packed sparse form to the PMF it
// came from: Unpack rebuilds every CDF entry bit for bit, and PrLE,
// Quantile, Mean, StdDev and Len of the packed form answer with the
// PMF's bits, on a completion-time PMF (a Combine result), a point
// mass and a many-pulse discretization.
func TestPackedPMFBitIdentical(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	avail := MustNew([]Pulse{{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1, Prob: 0.5}})
	exec := Discretize(stats.NewNormal(1800, 180), 50)
	for n, p := range []PMF{Div(exec, avail), Point(42), Discretize(stats.NewNormal(3, 1), 1000)} {
		pk := p.Pack()
		u := pk.Unpack()
		for i := range p.cdf {
			if !same(u.cdf[i], p.cdf[i]) || u.pulses[i] != p.pulses[i] {
				t.Fatalf("pmf %d pulse %d: unpacked %v cdf %x, want %v %x", n, i, u.pulses[i], u.cdf[i], p.pulses[i], p.cdf[i])
			}
		}
		if len(u.cdf) != len(p.cdf) || pk.Len() != p.Len() {
			t.Fatalf("pmf %d: unpacked %d CDF entries, packed Len %d, want %d", n, len(u.cdf), pk.Len(), p.Len())
		}
		if !same(pk.Mean(), p.Mean()) || !same(pk.StdDev(), p.StdDev()) {
			t.Errorf("pmf %d: packed mean/sd %x/%x, want %x/%x", n, pk.Mean(), pk.StdDev(), p.Mean(), p.StdDev())
		}
		xs := []float64{math.Inf(-1), p.Min() - 1, p.Max() + 1, math.Inf(1)}
		for _, pl := range p.pulses {
			xs = append(xs, pl.Value, math.Nextafter(pl.Value, math.Inf(-1)), math.Nextafter(pl.Value, math.Inf(1)))
		}
		for _, x := range xs {
			if got, want := pk.PrLE(x), p.PrLE(x); !same(got, want) {
				t.Fatalf("pmf %d: packed PrLE(%v) = %x, want %x", n, x, got, want)
			}
		}
		for i := 1; i <= 1000; i++ {
			q := float64(i) / 1000
			if got, want := pk.Quantile(q), p.Quantile(q); !same(got, want) {
				t.Fatalf("pmf %d: packed Quantile(%v) = %v, want %v", n, q, got, want)
			}
		}
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("packed Quantile(0) did not panic")
		}
	}()
	Point(1).Pack().Quantile(0)
}
