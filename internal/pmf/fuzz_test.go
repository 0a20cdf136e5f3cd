package pmf

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// FuzzNew exercises PMF construction with arbitrary pulse pairs; the
// invariant is that New either rejects the input or returns a PMF
// satisfying Validate with the mean inside the support.
func FuzzNew(f *testing.F) {
	f.Add(1.0, 0.5, 2.0, 0.5)
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(-5.0, 1.0, 5.0, 3.0)
	f.Add(1e300, 0.1, -1e300, 0.9)
	f.Fuzz(func(t *testing.T, v1, p1, v2, p2 float64) {
		pmf, err := New([]Pulse{{Value: v1, Prob: p1}, {Value: v2, Prob: p2}})
		if err != nil {
			return
		}
		if err := pmf.Validate(); err != nil {
			t.Fatalf("accepted PMF fails validation: %v", err)
		}
		m := pmf.Mean()
		if math.IsNaN(m) {
			t.Fatal("mean is NaN")
		}
		if m < pmf.Min()-1e-6*math.Abs(pmf.Min())-1e-9 ||
			m > pmf.Max()+1e-6*math.Abs(pmf.Max())+1e-9 {
			t.Fatalf("mean %v outside support [%v, %v]", m, pmf.Min(), pmf.Max())
		}
		if pr := pmf.PrLE(pmf.Max()); math.Abs(pr-1) > 1e-9 {
			t.Fatalf("PrLE(max) = %v", pr)
		}
	})
}

// FuzzCombineMerge checks that the merge-based Combine fast path is
// pulse-for-pulse identical to the naive cross-product reference for
// the monotone operators the scheduler uses, over arbitrary pulse
// placements (including duplicate and near-equal values, which exercise
// the constructor's merging).
func FuzzCombineMerge(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0, 5.0, uint8(0))
	f.Add(1.0, 1.0, 1.0, 2.0, 2.0, uint8(3))
	f.Add(0.5, 100.0, 0.25, 7.0, 7.0000001, uint8(5))
	f.Fuzz(func(t *testing.T, v1, v2, v3, w1, w2 float64, op uint8) {
		for _, v := range []float64{v1, v2, v3, w1, w2} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 || math.Abs(v) < 1e-100 {
				return
			}
		}
		ops := []func(x, y float64) float64{
			func(x, y float64) float64 { return x + y },
			func(x, y float64) float64 { return x - y },
			math.Max,
			math.Min,
		}
		fn := ops[int(op)%len(ops)]
		p := MustNew([]Pulse{{Value: v1, Prob: 0.2}, {Value: v2, Prob: 0.3}, {Value: v3, Prob: 0.5}})
		q := MustNew([]Pulse{{Value: w1, Prob: 0.6}, {Value: w2, Prob: 0.4}})
		fast, ok := combineMerge(p, q, fn)
		naive := naiveCombine(p, q, fn)
		if !ok {
			// Fast path declined (e.g. overflow to Inf); Combine must
			// still agree with the reference via the fallback.
			fast = Combine(p, q, fn)
		}
		if err := fast.Validate(); err != nil {
			t.Fatalf("combined PMF invalid: %v", err)
		}
		if fast.Len() != naive.Len() {
			t.Fatalf("pulse count %d, want %d\nfast  %v\nnaive %v", fast.Len(), naive.Len(), fast, naive)
		}
		for i := 0; i < fast.Len(); i++ {
			g, w := fast.At(i), naive.At(i)
			if math.Abs(g.Value-w.Value) > 1e-9*math.Max(1, math.Abs(w.Value)) {
				t.Fatalf("pulse %d value %v, want %v", i, g.Value, w.Value)
			}
			if math.Abs(g.Prob-w.Prob) > 1e-9 {
				t.Fatalf("pulse %d prob %v, want %v", i, g.Prob, w.Prob)
			}
		}
	})
}

// FuzzCombineOrder pins the order contract of the sparse Combine on
// the many-row merge path (at least seven rows, more than
// smallCombinePulses products): Add, Div and Combine under subtraction
// and multiplication must equal, bit
// for bit in every value, probability and cached CDF entry,
// stableCombineRef — the oriented row-major cross product put in order
// by a stable sort on value. Pulse values are small integers times a
// scale, so the cross product is full of exact ties (and of -0/+0
// pairs, which compare equal but keep their sign); negative values give
// descending rows for subtraction and multiplication; scales near 1e98 put the spans near
// +-1e100.
func FuzzCombineOrder(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), 1.0, uint8(0))
	f.Add(uint64(2), uint8(9), uint8(40), uint8(1), 1.0, uint8(1))
	f.Add(uint64(3), uint8(30), uint8(3), uint8(2), -0.5, uint8(3))
	f.Add(uint64(4), uint8(5), uint8(17), uint8(3), 1.0, uint8(4))
	f.Add(uint64(5), uint8(12), uint8(50), uint8(0), 1e98, uint8(2))
	f.Add(uint64(6), uint8(7), uint8(11), uint8(2), -1e98, uint8(1))
	f.Add(uint64(7), uint8(2), uint8(29), uint8(3), 0.25, uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, np, nq, op uint8, scale float64, shape uint8) {
		if scale == 0 || math.IsNaN(scale) || math.Abs(scale) > 1e98 || math.Abs(scale) < 1e-100 {
			return
		}
		r := rand.New(rand.NewSource(int64(seed)))
		sp, sq := 7+int(np)%16, 7+int(nq)%56
		if sp*sq <= smallCombinePulses {
			sq = smallCombinePulses/sp + 1
		}
		op %= 4
		// draw returns n distinct integer-valued pulses times scale.
		// shape&1 keeps 0 in the support (as -0 with shape&2); a Div
		// divisor has no zero and one sign (negative with shape&4), so
		// its rows stay monotone.
		draw := func(n int, divisor bool) PMF {
			w := n + 8
			vals := r.Perm(2*w + 1)
			ps := make([]Pulse, 0, n)
			for _, v := range vals {
				x := float64(v - w)
				switch {
				case divisor:
					x = float64(v + 1)
					if shape&4 != 0 {
						x = -x
					}
				case x == 0 && shape&1 == 0:
					continue
				case x == 0 && shape&2 != 0:
					x = math.Copysign(0, -1)
				}
				ps = append(ps, Pulse{Value: x * scale, Prob: float64(1 + r.Intn(4))})
				if len(ps) == n {
					break
				}
			}
			return MustNew(ps)
		}
		p, q := draw(sp, false), draw(sq, op == 3)
		if p.Len() != sp || q.Len() != sq {
			t.Fatalf("drew %d and %d pulses, want %d and %d", p.Len(), q.Len(), sp, sq)
		}
		fns := []func(x, y float64) float64{
			func(x, y float64) float64 { return x + y },
			func(x, y float64) float64 { return x - y },
			func(x, y float64) float64 { return x * y },
			func(x, y float64) float64 { return x / y },
		}
		want, ok := stableCombineRef(p, q, fns[op])
		if !ok {
			return // not a merge-path input
		}
		var got PMF
		switch op {
		case 0:
			got = Add(p, q)
		case 3:
			got = Div(p, q)
		default:
			got = Combine(p, q, fns[op])
		}
		if got.Len() != want.Len() {
			t.Fatalf("op %d: %d pulses, reference %d", op, got.Len(), want.Len())
		}
		for i := range got.pulses {
			g, w := got.pulses[i], want.pulses[i]
			if math.Float64bits(g.Value) != math.Float64bits(w.Value) ||
				math.Float64bits(g.Prob) != math.Float64bits(w.Prob) ||
				math.Float64bits(got.cdf[i]) != math.Float64bits(want.cdf[i]) {
				t.Fatalf("op %d: pulse %d = %x:%x (cdf %x), reference %x:%x (cdf %x)",
					op, i, g.Value, g.Prob, got.cdf[i], w.Value, w.Prob, want.cdf[i])
			}
		}
	})
}

// stableCombineRef is the specification of the sparse Combine's merge
// path: the cross product laid out row-major with the smaller PMF as
// the rows, each row oriented ascending, the total mass summed in
// layout order before orientation, and the whole sorted by value with
// a stable sort — ties in (row, position) order. ok is false when the
// merge path would decline the input (a non-monotone row or a
// non-finite value).
func stableCombineRef(p, q PMF, f func(x, y float64) float64) (PMF, bool) {
	outer, inner, swapped := p.pulses, q.pulses, false
	if len(outer) > len(inner) {
		outer, inner, swapped = inner, outer, true
	}
	all := make([]Pulse, 0, len(outer)*len(inner))
	total := 0.0
	for _, a := range outer {
		row := make([]Pulse, 0, len(inner))
		for _, b := range inner {
			v := f(a.Value, b.Value)
			if swapped {
				v = f(b.Value, a.Value)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return PMF{}, false
			}
			row = append(row, Pulse{Value: v, Prob: a.Prob * b.Prob})
			total += a.Prob * b.Prob
		}
		up, down := false, false
		for j := 1; j < len(row); j++ {
			up = up || row[j].Value > row[j-1].Value
			down = down || row[j].Value < row[j-1].Value
		}
		if up && down {
			return PMF{}, false
		}
		if down {
			slices.Reverse(row)
		}
		all = append(all, row...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Value < all[j].Value })
	out, err := finishSorted(all, total)
	return out, err == nil
}

// FuzzGridSparse checks the grid backend against the sparse reference
// over arbitrary pulse placements: Add and Max results must agree with
// the exact sparse computation within the documented quantization
// bounds (each ToGrid moves a support point by at most step/2, so means
// agree within the accumulated shift and PrLE within the sparse bracket
// at +-shift).
func FuzzGridSparse(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0, 5.0, 0.5)
	f.Add(10.0, 10.5, 11.0, 0.25, 90.0, 0.25)
	f.Add(-3.0, 0.0, 3.0, -1.0, 1.0, 2.0)
	f.Fuzz(func(t *testing.T, v1, v2, v3, w1, w2, step float64) {
		if step <= 1e-6 || step > 1e6 || math.IsNaN(step) || math.IsInf(step, 0) {
			return
		}
		for _, v := range []float64{v1, v2, v3, w1, w2} {
			// Keep bins per grid bounded and products finite.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e3*step {
				return
			}
		}
		p := MustNew([]Pulse{{Value: v1, Prob: 0.2}, {Value: v2, Prob: 0.3}, {Value: v3, Prob: 0.5}})
		q := MustNew([]Pulse{{Value: w1, Prob: 0.6}, {Value: w2, Prob: 0.4}})
		gp, gq := p.ToGrid(step), q.ToGrid(step)
		defer gp.Release()
		defer gq.Release()

		// Quantization alone: means within step/2, PrLE within the
		// sparse bracket at +-(step/2 + eps).
		shift := step/2 + 1e-9*math.Max(1, math.Abs(p.Max()))
		if d := math.Abs(gp.Mean() - p.Mean()); d > shift {
			t.Fatalf("ToGrid moved mean by %v > %v", d, shift)
		}
		for _, x := range []float64{v1, v2, v3, (v1 + v2) / 2} {
			lo, hi := p.PrLE(x-shift)-1e-9, p.PrLE(x+shift)+1e-9
			if got := gp.PrLE(x); got < lo || got > hi {
				t.Fatalf("ToGrid PrLE(%v) = %v outside [%v,%v]", x, got, lo, hi)
			}
		}

		check := func(name string, g *Grid, want PMF, shift float64) {
			t.Helper()
			defer g.Release()
			if err := g.Validate(); err != nil {
				t.Fatalf("%s: invalid grid: %v", name, err)
			}
			tol := shift + 1e-6*math.Max(1, math.Abs(want.Mean()))
			if d := math.Abs(g.Mean() - want.Mean()); d > tol {
				t.Fatalf("%s: mean off by %v > %v (grid %v, sparse %v)", name, d, tol, g.Mean(), want.Mean())
			}
			for _, x := range []float64{want.Min(), want.Max(), (want.Min() + want.Max()) / 2} {
				lo := want.PrLE(x-shift) - 1e-6
				hi := want.PrLE(x+shift) + 1e-6
				if got := g.PrLE(x); got < lo || got > hi {
					t.Fatalf("%s: PrLE(%v) = %v outside [%v,%v]", name, x, got, lo, hi)
				}
			}
		}
		// Add: each operand quantized by <= step/2; the convolution
		// itself is exact on the lattice.
		check("Add", gp.Add(gq), Add(p, q), step+1e-9)
		// Max: quantization only; the CDF product is exact.
		check("Max", gp.MaxWith(gq), Max(p, q), step/2+1e-9)
	})
}

// FuzzRebin checks mass and mean preservation for arbitrary bin widths.
func FuzzRebin(f *testing.F) {
	f.Add(1.0)
	f.Add(0.001)
	f.Add(1000.0)
	f.Fuzz(func(t *testing.T, width float64) {
		if width <= 0 || math.IsNaN(width) || math.IsInf(width, 0) || width > 1e12 {
			return
		}
		p := MustNew([]Pulse{
			{Value: 10, Prob: 0.25}, {Value: 20, Prob: 0.25},
			{Value: 100, Prob: 0.25}, {Value: 1000, Prob: 0.25}})
		r := p.Rebin(width)
		if err := r.Validate(); err != nil {
			t.Fatalf("rebinned PMF invalid: %v", err)
		}
		if math.Abs(r.Mean()-p.Mean()) > 1e-6*p.Mean() {
			t.Fatalf("rebin moved mean: %v -> %v (width %v)", p.Mean(), r.Mean(), width)
		}
	})
}
