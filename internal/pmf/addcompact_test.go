package pmf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cdsf/internal/metrics"
)

// sameBits fails unless got and want hold the same pulses and cached
// CDF, bit for bit.
func sameBits(t *testing.T, what string, got, want PMF) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d pulses, want %d", what, got.Len(), want.Len())
	}
	for i := range got.pulses {
		g, w := got.pulses[i], want.pulses[i]
		if math.Float64bits(g.Value) != math.Float64bits(w.Value) ||
			math.Float64bits(g.Prob) != math.Float64bits(w.Prob) ||
			math.Float64bits(got.cdf[i]) != math.Float64bits(want.cdf[i]) {
			t.Fatalf("%s: pulse %d = %x:%x (cdf %x), want %x:%x (cdf %x)",
				what, i, g.Value, g.Prob, got.cdf[i], w.Value, w.Prob, want.cdf[i])
		}
	}
}

// spreadPMF builds an n-pulse PMF with irregularly spaced values from
// lo over about width and uneven probabilities, so that its sums with
// another spread PMF are (almost) all distinct.
func spreadPMF(lo, width float64, n int) PMF {
	ps := make([]Pulse, n)
	for i := range ps {
		x := float64(i) / float64(n)
		ps[i] = Pulse{
			Value: lo + width*(x+0.3*x*x) + 1e-3*width/float64(n)*math.Sin(float64(7*i)),
			Prob:  1 + math.Exp(-8*(x-0.4)*(x-0.4)),
		}
	}
	return MustNew(ps)
}

// TestAddCompactFallsBackToFold checks every case in which AddCompact
// returns the fold Add(p, q).Compact(maxPulses) itself, bit for bit;
// in each the fold does not compact, so the result is Add's.
func TestAddCompactFallsBackToFold(t *testing.T) {
	lattice := func(n int) PMF {
		ps := make([]Pulse, n)
		for i := range ps {
			ps[i] = Pulse{Value: float64(1 + i), Prob: float64(1 + i%5)}
		}
		return MustNew(ps)
	}
	cases := []struct {
		name string
		p, q PMF
		max  int
	}{
		// 40x50 = 2000 sums fit under the cap.
		{"below cap", spreadPMF(10, 100, 40), spreadPMF(3, 50, 50), 2048},
		// 64x64 = 4096 sums but only 127 distinct values (2..128).
		{"integer lattice", lattice(64), lattice(64), 2048},
		// All sums lie within the merge tolerance of each other, so the
		// cell keys would not fit an int64; Add merges them to one pulse.
		{"huge offset", MustNew([]Pulse{{Value: 1e21, Prob: 1}, {Value: 1e21 + 1<<18, Prob: 1}}),
			MustNew([]Pulse{{Value: 0, Prob: 1}, {Value: 1 << 18, Prob: 1}}), 3},
		// 1e-200 * 1e-200 underflows to zero, and Add drops that pulse.
		{"underflowing product", MustNew([]Pulse{{Value: 1, Prob: 1e-200}, {Value: 2, Prob: 1}}),
			MustNew([]Pulse{{Value: 10, Prob: 1e-200}, {Value: 20, Prob: 1}}), 3},
	}
	for _, c := range cases {
		fold := Add(c.p, c.q).Compact(c.max)
		got := AddCompact(c.p, c.q, c.max)
		sameBits(t, c.name, got, fold)
		sameBits(t, c.name+" vs Add", got, Add(c.p, c.q))
	}
}

// sameCells fails unless got, a valid PMF of at most max pulses, has
// the fold's pulse count with every value (relative) and probability
// within 1e-12 of the fold's: the same cells, summed in another order.
func sameCells(t *testing.T, got, fold PMF, max int) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.Len() != fold.Len() || got.Len() > max {
		t.Fatalf("%d pulses, fold %d (cap %d)", got.Len(), fold.Len(), max)
	}
	for i := range got.pulses {
		g, w := got.pulses[i], fold.pulses[i]
		if math.Abs(g.Value-w.Value) > 1e-12*math.Abs(w.Value) || math.Abs(g.Prob-w.Prob) > 1e-12 {
			t.Fatalf("pulse %d = %v, fold %v", i, g, w)
		}
	}
}

// TestAddCompactMatchesFold checks the binned path on operands shaped
// like the third layer of a DAG composition (an ~1800-pulse ready time
// plus a 100-pulse completion PMF).
func TestAddCompactMatchesFold(t *testing.T) {
	p, q := spreadPMF(5000, 4000, 1800), spreadPMF(800, 900, 100)
	sameCells(t, AddCompact(p, q, 2048), Add(p, q).Compact(2048), 2048)
}

// TestAddCompactWidens drives the widen-and-retry branch: at the first
// width every one of the maxPulses+1 cells is occupied, so both
// AddCompact and the fold widen the cells by 1.1 and agree again.
func TestAddCompactWidens(t *testing.T) {
	p, q := spreadPMF(0, 10, 200), spreadPMF(0, 3, 50)
	const max = 64
	sum := Add(p, q)
	if n := sum.Rebin((sum.Max() - sum.Min()) / max).Len(); n != max+1 {
		t.Fatalf("first width leaves %d cells, want %d for this test", n, max+1)
	}
	sameCells(t, AddCompact(p, q, max), sum.Compact(max), max)
}

// TestAddCompactOverflowPanicsAsAdd checks that a sum past the float64
// range fails exactly as Add does, and that a cap below one panics.
func TestAddCompactOverflowPanicsAsAdd(t *testing.T) {
	catch := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	p := MustNew([]Pulse{{Value: 1e308, Prob: 1}, {Value: 1.5e308, Prob: 1}})
	q := MustNew([]Pulse{{Value: 1e308, Prob: 1}, {Value: 1.2e308, Prob: 1}})
	want := catch(func() { Add(p, q).Compact(1) })
	got := catch(func() { AddCompact(p, q, 1) })
	if want == nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("AddCompact panicked with %v, Add with %v", got, want)
	}
	if catch(func() { AddCompact(p, q, 0) }) == nil {
		t.Error("AddCompact to 0 pulses did not panic")
	}
}

// TestAddCompactCounts checks that a binned AddCompact counts one
// pmf.compact_truncations and no Combine.
func TestAddCompactCounts(t *testing.T) {
	reg := metrics.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)
	AddCompact(spreadPMF(5000, 4000, 300), spreadPMF(800, 900, 20), 256)
	if got := reg.Counter("pmf.compact_truncations").Value(); got != 1 {
		t.Errorf("compact_truncations = %d, want 1", got)
	}
	for _, name := range []string{"pmf.combine_fast", "pmf.combine_small", "pmf.combine_fallback"} {
		if got := reg.Counter(name).Value(); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
}

// FuzzAddCompact checks AddCompact against the fold
// Add(p, q).Compact(M) on random operands of one sign, drawn either on
// an integer lattice (few distinct sums) or from continuous values:
// wherever the fold does not compact the results are bit-identical;
// otherwise AddCompact returns at most M pulses with total mass within
// probTol of 1 and the fold's mean to 1e-9 relative.
func FuzzAddCompact(f *testing.F) {
	f.Add(uint64(1), uint8(64), uint8(64), uint16(2047), 1.0, uint8(0))
	f.Add(uint64(2), uint8(70), uint8(30), uint16(99), 1.0, uint8(1))
	f.Add(uint64(3), uint8(9), uint8(40), uint16(20), -1e90, uint8(1))
	f.Add(uint64(4), uint8(50), uint8(45), uint16(0), 1e-90, uint8(0))
	f.Add(uint64(5), uint8(79), uint8(79), uint16(299), 3.5, uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, np, nq uint8, m uint16, scale float64, shape uint8) {
		if scale == 0 || math.IsNaN(scale) || math.Abs(scale) > 1e100 || math.Abs(scale) < 1e-100 {
			return
		}
		r := rand.New(rand.NewSource(int64(seed)))
		max := 1 + int(m)%2048
		draw := func(n int) PMF {
			ps := make([]Pulse, n)
			for i := range ps {
				x := 1 + r.Float64()*float64(n)
				if shape&1 == 0 {
					x = float64(1 + r.Intn(2*n))
				}
				ps[i] = Pulse{Value: x * scale, Prob: float64(1 + r.Intn(8))}
			}
			return MustNew(ps)
		}
		p, q := draw(1+int(np)%80), draw(1+int(nq)%80)
		sum := Add(p, q)
		fold := sum.Compact(max)
		got := AddCompact(p, q, max)
		if sum.Len() <= max {
			sameBits(t, "uncompacted", got, fold)
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if got.Len() > max {
			t.Fatalf("%d pulses, cap %d", got.Len(), max)
		}
		if d := math.Abs(got.Mean() - fold.Mean()); d > 1e-9*math.Abs(fold.Mean()) {
			t.Fatalf("mean %v, fold %v", got.Mean(), fold.Mean())
		}
	})
}
