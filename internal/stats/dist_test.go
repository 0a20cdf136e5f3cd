package stats

import (
	"math"
	"testing"
	"testing/quick"

	"cdsf/internal/rng"
)

func TestNormalCDFKnownValues(t *testing.T) {
	n := NewNormal(0, 1)
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := n.CDF(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	n := NewNormal(10, 3)
	for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		x := n.Quantile(p)
		if got := n.CDF(x); math.Abs(got-p) > 1e-10 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestNormalSampleMoments(t *testing.T) {
	n := NewNormal(5, 2)
	r := rng.New(1)
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = n.Sample(r)
	}
	if m := Mean(xs); math.Abs(m-5) > 0.02 {
		t.Errorf("sample mean = %v, want ~5", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 0.02 {
		t.Errorf("sample stddev = %v, want ~2", s)
	}
}

func TestNewNormalPanicsOnBadSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewNormal(1, 0) did not panic")
		}
	}()
	NewNormal(1, 0)
}

func TestErfinvAccuracy(t *testing.T) {
	for _, x := range []float64{-0.999, -0.9, -0.5, -0.1, 0, 0.1, 0.5, 0.9, 0.999, 0.999999} {
		y := erfinv(x)
		if got := math.Erf(y); math.Abs(got-x) > 1e-12 {
			t.Errorf("Erf(erfinv(%v)) = %v", x, got)
		}
	}
}

func TestExponential(t *testing.T) {
	e := NewExponential(0.5)
	if e.Mean() != 2 {
		t.Errorf("mean = %v", e.Mean())
	}
	if e.Var() != 4 {
		t.Errorf("var = %v", e.Var())
	}
	if got := e.CDF(2); math.Abs(got-(1-math.Exp(-1))) > 1e-12 {
		t.Errorf("CDF(2) = %v", got)
	}
	if got := e.Quantile(e.CDF(3)); math.Abs(got-3) > 1e-10 {
		t.Errorf("quantile round trip = %v", got)
	}
	r := rng.New(8)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = e.Sample(r)
	}
	if m := Mean(xs); math.Abs(m-2) > 0.03 {
		t.Errorf("sample mean = %v, want ~2", m)
	}
}

func TestTruncatedStaysInBounds(t *testing.T) {
	tr := Truncated{Dist: NewNormal(0, 1), Lo: -1, Hi: 2}
	r := rng.New(3)
	for i := 0; i < 20000; i++ {
		x := tr.Sample(r)
		if x < -1 || x > 2 {
			t.Fatalf("truncated sample %v out of bounds", x)
		}
	}
	if tr.CDF(-1.5) != 0 || tr.CDF(2.5) != 1 {
		t.Error("truncated CDF tails wrong")
	}
	if got := tr.CDF(tr.Quantile(0.3)); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("truncated quantile round trip = %v", got)
	}
}

// TestQuickNormalCDFMonotone property-checks monotonicity of the CDF.
func TestQuickNormalCDFMonotone(t *testing.T) {
	n := NewNormal(0, 1)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return n.CDF(lo) <= n.CDF(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickQuantileInRange property-checks the exponential quantile is
// non-negative and finite for p in [0,1).
func TestQuickQuantileInRange(t *testing.T) {
	e := NewExponential(1.5)
	f := func(raw float64) bool {
		p := math.Abs(raw)
		p -= math.Floor(p) // into [0,1)
		q := e.Quantile(p)
		return q >= 0 && !math.IsInf(q, 0) && !math.IsNaN(q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
