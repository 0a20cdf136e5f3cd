package pmf

import (
	"math"
	"testing"
	"testing/quick"
)

func coin() PMF {
	return MustNew([]Pulse{{Value: 0, Prob: 0.5}, {Value: 1, Prob: 0.5}})
}

func TestMaxNCoin(t *testing.T) {
	// Max of 2 fair 0/1 draws: P(0) = 1/4, P(1) = 3/4.
	m := MaxN(coin(), 2)
	if math.Abs(m.PrLE(0)-0.25) > 1e-12 {
		t.Errorf("P(max<=0) = %v", m.PrLE(0))
	}
	if math.Abs(m.Mean()-0.75) > 1e-12 {
		t.Errorf("E[max] = %v", m.Mean())
	}
	// Max of n: P(0) = 2^-n.
	m10 := MaxN(coin(), 10)
	if math.Abs(m10.PrLE(0)-math.Pow(0.5, 10)) > 1e-12 {
		t.Errorf("P(max10<=0) = %v", m10.PrLE(0))
	}
	// n = 1 is the identity.
	if !equalPMF(MaxN(coin(), 1), coin()) {
		t.Error("MaxN(1) != identity")
	}
}

func TestOrderMeansMonotone(t *testing.T) {
	u := MustNew([]Pulse{
		{Value: 1, Prob: 0.25}, {Value: 2, Prob: 0.25},
		{Value: 5, Prob: 0.25}, {Value: 9, Prob: 0.25}})
	// E[max of n] grows with n.
	if MaxN(u, 4).Mean() <= MaxN(u, 2).Mean() {
		t.Error("E[max] not growing with n")
	}
}

func TestOrderPanics(t *testing.T) {
	for _, f := range []func(){
		func() { MaxN(coin(), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid order-statistic call did not panic")
				}
			}()
			f()
		}()
	}
}

func equalPMF(a, b PMF) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		pa, pb := a.At(i), b.At(i)
		if math.Abs(pa.Value-pb.Value) > 1e-12 || math.Abs(pa.Prob-pb.Prob) > 1e-12 {
			return false
		}
	}
	return true
}

// TestQuickOrderStatisticsLaws property-checks, for random PMFs:
// total mass 1 after MaxN, E[X] <= E[max], and MaxN's CDF dominance
// (P(max<=t) <= P(X<=t)).
func TestQuickOrderStatisticsLaws(t *testing.T) {
	f := func(raw []float64, nRaw uint8) bool {
		ps := quickPulses(raw)
		if len(ps) == 0 {
			return true
		}
		p, err := New(ps)
		if err != nil {
			return true
		}
		n := int(nRaw%6) + 1
		mx := MaxN(p, n)
		if mx.Validate() != nil {
			return false
		}
		tol := 1e-9 * (1 + math.Abs(p.Mean()))
		if p.Mean() > mx.Mean()+tol {
			return false
		}
		// CDF dominance at every support point.
		for _, pl := range p.Pulses() {
			if mx.PrLE(pl.Value) > p.PrLE(pl.Value)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
