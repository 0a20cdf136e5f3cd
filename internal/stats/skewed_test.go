package stats

import (
	"math"
	"testing"

	"cdsf/internal/rng"
)

func TestLogNormalMoments(t *testing.T) {
	l := LogNormalFromMoments(100, 30)
	if math.Abs(l.Mean()-100) > 1e-9 {
		t.Errorf("mean = %v", l.Mean())
	}
	if math.Abs(math.Sqrt(l.Var())-30) > 1e-9 {
		t.Errorf("stddev = %v", math.Sqrt(l.Var()))
	}
}

func TestLogNormalCDFQuantileRoundTrip(t *testing.T) {
	l := LogNormal{MuLog: 1, SigmaLog: 0.5}
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
		x := l.Quantile(p)
		if got := l.CDF(x); math.Abs(got-p) > 1e-10 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if l.CDF(-1) != 0 || l.CDF(0) != 0 {
		t.Error("CDF not zero at non-positive x")
	}
}

func TestLogNormalSampleMoments(t *testing.T) {
	l := LogNormalFromMoments(50, 20)
	r := rng.New(3)
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = l.Sample(r)
		if xs[i] <= 0 {
			t.Fatalf("non-positive sample %v", xs[i])
		}
	}
	if m := Mean(xs); math.Abs(m-50) > 0.5 {
		t.Errorf("sample mean = %v", m)
	}
	if s := StdDev(xs); math.Abs(s-20) > 0.5 {
		t.Errorf("sample stddev = %v", s)
	}
}

func TestGammaMoments(t *testing.T) {
	g := GammaFromMoments(100, 30)
	if math.Abs(g.Mean()-100) > 1e-9 {
		t.Errorf("mean = %v", g.Mean())
	}
	if math.Abs(math.Sqrt(g.Var())-30) > 1e-9 {
		t.Errorf("stddev = %v", math.Sqrt(g.Var()))
	}
}

func TestGammaCDFKnownValues(t *testing.T) {
	// Gamma(k=1, theta=1) is Exponential(1): CDF(x) = 1 - e^-x.
	g := Gamma{K: 1, Theta: 1}
	for _, x := range []float64{0.1, 0.5, 1, 2, 5} {
		want := 1 - math.Exp(-x)
		if got := g.CDF(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("CDF(%v) = %v, want %v", x, got, want)
		}
	}
	// Gamma(k=2, theta=1): CDF(x) = 1 - (1+x) e^-x.
	g2 := Gamma{K: 2, Theta: 1}
	for _, x := range []float64{0.5, 1, 3} {
		want := 1 - (1+x)*math.Exp(-x)
		if got := g2.CDF(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("k=2 CDF(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestGammaQuantileRoundTrip(t *testing.T) {
	g := Gamma{K: 3.7, Theta: 2.1}
	for _, p := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		x := g.Quantile(p)
		if got := g.CDF(x); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestGammaSampleMoments(t *testing.T) {
	for _, tc := range []struct{ k, theta float64 }{
		{0.5, 2}, {1, 1}, {4, 0.5}, {20, 3},
	} {
		g := Gamma{K: tc.k, Theta: tc.theta}
		r := rng.New(7)
		xs := make([]float64, 200000)
		for i := range xs {
			xs[i] = g.Sample(r)
			if xs[i] < 0 {
				t.Fatalf("negative gamma sample %v", xs[i])
			}
		}
		if m := Mean(xs); math.Abs(m-g.Mean()) > 0.02*g.Mean()+0.01 {
			t.Errorf("k=%v: sample mean %v, want %v", tc.k, m, g.Mean())
		}
		if v := Variance(xs); math.Abs(v-g.Var())/g.Var() > 0.05 {
			t.Errorf("k=%v: sample var %v, want %v", tc.k, v, g.Var())
		}
	}
}

func TestSkewedImplementDist(t *testing.T) {
	var _ Dist = LogNormal{MuLog: 0, SigmaLog: 1}
	var _ Dist = Gamma{K: 1, Theta: 1}
}
