package pmf

import (
	"math"
	"testing"

	"cdsf/internal/rng"
	"cdsf/internal/stats"
)

func TestFromSamples(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 2, 3}
	p := FromSamples(xs, 3)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Mean()-stats.Mean(xs)) > 0.5 {
		t.Errorf("binned mean = %v, sample mean = %v", p.Mean(), stats.Mean(xs))
	}
}

func TestSampledApproximatesDistribution(t *testing.T) {
	d := stats.NewNormal(100, 10)
	p := Sampled(d, 50000, 60, rng.New(5))
	if math.Abs(p.Mean()-100) > 0.5 {
		t.Errorf("sampled mean = %v", p.Mean())
	}
	if math.Abs(p.StdDev()-10) > 0.5 {
		t.Errorf("sampled stddev = %v", p.StdDev())
	}
}

func TestDiscretizeMatchesMoments(t *testing.T) {
	d := stats.NewNormal(100, 10)
	p := Discretize(d, 500)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 500 {
		t.Fatalf("len = %d", p.Len())
	}
	if math.Abs(p.Mean()-100) > 0.05 {
		t.Errorf("discretized mean = %v", p.Mean())
	}
	// Equiprobable discretization slightly under-represents the tails,
	// so allow a small downward bias on the spread.
	if math.Abs(p.StdDev()-10) > 0.3 {
		t.Errorf("discretized stddev = %v", p.StdDev())
	}
	// The discretized CDF should track the continuous CDF.
	for _, x := range []float64{80, 90, 100, 110, 120} {
		if got, want := p.PrLE(x), d.CDF(x); math.Abs(got-want) > 0.01 {
			t.Errorf("PrLE(%v) = %v, CDF = %v", x, got, want)
		}
	}
}

func TestDiscretizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Discretize with 0 pulses did not panic")
		}
	}()
	Discretize(stats.NewNormal(0, 1), 0)
}

func TestPaperPhi1FromSampledAndDiscretized(t *testing.T) {
	// The robust-IM application-3 probability (paper: 74.5% overall,
	// with apps 1-2 at ~1.0) must agree between the sampling
	// construction the paper describes and the deterministic
	// discretization this repository defaults to.
	avail := MustNew([]Pulse{{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1, Prob: 0.5}})
	parallel := func(T float64) float64 { return 0.05*T + 0.95*T/8 }

	disc := Discretize(stats.NewNormal(8000, 800), 250).Map(parallel)
	probDisc := Div(disc, avail).PrLE(3250)

	samp := Sampled(stats.NewNormal(8000, 800), 200000, 200, rng.New(3)).Map(parallel)
	probSamp := Div(samp, avail).PrLE(3250)

	if math.Abs(probDisc-0.745) > 0.005 {
		t.Errorf("discretized Pr = %v, want ~0.745", probDisc)
	}
	if math.Abs(probSamp-0.745) > 0.01 {
		t.Errorf("sampled Pr = %v, want ~0.745", probSamp)
	}
}
