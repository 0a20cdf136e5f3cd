package pmf

import (
	"math"
	"testing"
	"testing/quick"

	"cdsf/internal/rng"
)

func mustPMF(t *testing.T, pulses []Pulse) PMF {
	t.Helper()
	p, err := New(pulses)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewNormalizes(t *testing.T) {
	p := mustPMF(t, []Pulse{{Value: 1, Prob: 2}, {Value: 2, Prob: 6}})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.At(0).Prob; math.Abs(got-0.25) > 1e-12 {
		t.Errorf("normalized prob = %v, want 0.25", got)
	}
}

func TestNewMergesEqualValues(t *testing.T) {
	p := mustPMF(t, []Pulse{{Value: 3, Prob: 0.5}, {Value: 3, Prob: 0.25}, {Value: 5, Prob: 0.25}})
	if p.Len() != 2 {
		t.Fatalf("len = %d, want 2", p.Len())
	}
	if got := p.At(0).Prob; math.Abs(got-0.75) > 1e-12 {
		t.Errorf("merged prob = %v", got)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	cases := [][]Pulse{
		nil,
		{},
		{{Value: 1, Prob: -0.5}},
		{{Value: math.NaN(), Prob: 1}},
		{{Value: math.Inf(1), Prob: 1}},
		{{Value: 1, Prob: 0}},
		{{Value: 1, Prob: math.NaN()}},
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestPointAndMoments(t *testing.T) {
	p := Point(7)
	if p.Mean() != 7 || p.Variance() != 0 || p.Min() != 7 || p.Max() != 7 {
		t.Error("point PMF moments wrong")
	}
}

func TestMeanVarianceKnown(t *testing.T) {
	// X in {0, 10} with equal probability: mean 5, var 25.
	p := mustPMF(t, []Pulse{{Value: 0, Prob: 0.5}, {Value: 10, Prob: 0.5}})
	if p.Mean() != 5 {
		t.Errorf("mean = %v", p.Mean())
	}
	if p.Variance() != 25 {
		t.Errorf("variance = %v", p.Variance())
	}
	if p.StdDev() != 5 {
		t.Errorf("stddev = %v", p.StdDev())
	}
}

func TestPrLEAndQuantile(t *testing.T) {
	p := mustPMF(t, []Pulse{
		{Value: 1, Prob: 0.2}, {Value: 2, Prob: 0.3}, {Value: 4, Prob: 0.5}})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.2}, {1.5, 0.2}, {2, 0.5}, {3.9, 0.5}, {4, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := p.PrLE(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PrLE(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if p.Quantile(0.2) != 1 || p.Quantile(0.5) != 2 || p.Quantile(0.51) != 4 || p.Quantile(1) != 4 {
		t.Error("quantiles wrong")
	}
}

func TestScaleShiftMap(t *testing.T) {
	p := mustPMF(t, []Pulse{{Value: 1, Prob: 0.5}, {Value: 3, Prob: 0.5}})
	s := p.Scale(2)
	if s.Mean() != 4 {
		t.Errorf("scaled mean = %v", s.Mean())
	}
	sq := p.Map(func(v float64) float64 { return v * v })
	if sq.Mean() != 5 { // (1+9)/2
		t.Errorf("mapped mean = %v", sq.Mean())
	}
}

func TestScalePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Scale(0) did not panic")
		}
	}()
	Point(1).Scale(0)
}

func TestAddIsConvolution(t *testing.T) {
	d6 := func() PMF {
		ps := make([]Pulse, 6)
		for i := range ps {
			ps[i] = Pulse{Value: float64(i + 1), Prob: 1.0 / 6}
		}
		return MustNew(ps)
	}
	two := Add(d6(), d6())
	if two.Len() != 11 {
		t.Fatalf("two dice support size = %d", two.Len())
	}
	if got := two.PrLE(2) - two.PrLE(1); math.Abs(got-1.0/36) > 1e-12 {
		t.Errorf("P(sum=2) = %v", got)
	}
	if got := two.Mean(); math.Abs(got-7) > 1e-12 {
		t.Errorf("two dice mean = %v", got)
	}
}

func TestMaxMinKnown(t *testing.T) {
	a := mustPMF(t, []Pulse{{Value: 1, Prob: 0.5}, {Value: 3, Prob: 0.5}})
	b := mustPMF(t, []Pulse{{Value: 2, Prob: 1}})
	mx := Max(a, b)
	// max(X, 2): {2: 0.5, 3: 0.5}
	if mx.Min() != 2 || mx.Max() != 3 || math.Abs(mx.Mean()-2.5) > 1e-12 {
		t.Errorf("max PMF wrong: %v", mx)
	}
}

func TestDivByAvailability(t *testing.T) {
	exec := mustPMF(t, []Pulse{{Value: 100, Prob: 1}})
	avail := mustPMF(t, []Pulse{{Value: 0.5, Prob: 0.5}, {Value: 1, Prob: 0.5}})
	c := Div(exec, avail)
	// 100/0.5 = 200 w.p. 0.5, 100/1 = 100 w.p. 0.5.
	if c.Min() != 100 || c.Max() != 200 || math.Abs(c.Mean()-150) > 1e-12 {
		t.Errorf("div PMF wrong: %v", c)
	}
}

func TestDivPanicsOnZeroSupport(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Div by PMF with zero support did not panic")
		}
	}()
	Div(Point(1), mustPMF(t, []Pulse{{Value: 0, Prob: 0.5}, {Value: 1, Prob: 0.5}}))
}

func TestRebinPreservesMassAndApproxMean(t *testing.T) {
	ps := make([]Pulse, 100)
	for i := range ps {
		ps[i] = Pulse{Value: float64(i), Prob: 0.01}
	}
	p := MustNew(ps)
	r := p.Rebin(10)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 10 {
		t.Errorf("rebinned len = %d", r.Len())
	}
	if math.Abs(r.Mean()-p.Mean()) > 1e-9 {
		t.Errorf("rebin changed mean: %v vs %v", r.Mean(), p.Mean())
	}
}

func TestCompact(t *testing.T) {
	ps := make([]Pulse, 1000)
	for i := range ps {
		ps[i] = Pulse{Value: float64(i) / 10, Prob: 0.001}
	}
	p := MustNew(ps)
	c := p.Compact(32)
	if c.Len() > 32 {
		t.Errorf("compacted to %d pulses", c.Len())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Mean()-p.Mean()) > p.Mean()*0.01 {
		t.Errorf("compaction moved mean: %v vs %v", c.Mean(), p.Mean())
	}
	// Already-small PMFs are returned unchanged.
	small := Point(2)
	if got := small.Compact(10); got.Len() != 1 {
		t.Error("compact changed a small PMF")
	}
}

func TestSampleDistribution(t *testing.T) {
	p := mustPMF(t, []Pulse{{Value: 1, Prob: 0.25}, {Value: 2, Prob: 0.75}})
	r := rng.New(42)
	n1 := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if p.Sample(r) == 1 {
			n1++
		}
	}
	if f := float64(n1) / draws; math.Abs(f-0.25) > 0.01 {
		t.Errorf("sample frequency of 1 = %v, want ~0.25", f)
	}
}

func TestAliasSamplerMatchesPMF(t *testing.T) {
	p := mustPMF(t, []Pulse{
		{Value: 1, Prob: 0.1}, {Value: 2, Prob: 0.2},
		{Value: 3, Prob: 0.3}, {Value: 4, Prob: 0.4}})
	s := p.Sampler()
	r := rng.New(17)
	counts := map[float64]int{}
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[s.Sample(r)]++
	}
	for _, pl := range p.Pulses() {
		f := float64(counts[pl.Value]) / draws
		if math.Abs(f-pl.Prob) > 0.01 {
			t.Errorf("alias freq(%v) = %v, want %v", pl.Value, f, pl.Prob)
		}
	}
}

func TestString(t *testing.T) {
	p := mustPMF(t, []Pulse{{Value: 1, Prob: 0.5}, {Value: 2, Prob: 0.5}})
	if got := p.String(); got != "{1:0.5 2:0.5}" {
		t.Errorf("String = %q", got)
	}
}

// quickPulses converts raw quick-generated data into a valid pulse set,
// or nil when impossible.
func quickPulses(raw []float64) []Pulse {
	var ps []Pulse
	for i := 0; i+1 < len(raw); i += 2 {
		v, pr := raw[i], math.Abs(raw[i+1])
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
			continue
		}
		if math.IsNaN(pr) || math.IsInf(pr, 0) || pr == 0 || pr > 1e100 {
			continue
		}
		ps = append(ps, Pulse{Value: v, Prob: pr})
	}
	return ps
}

// TestQuickConstructionInvariants property-checks that any valid pulse
// set yields a PMF satisfying Validate.
func TestQuickConstructionInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		ps := quickPulses(raw)
		if len(ps) == 0 {
			return true
		}
		p, err := New(ps)
		if err != nil {
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickAddMeanLinearity property-checks E[X+Y] = E[X]+E[Y].
func TestQuickAddMeanLinearity(t *testing.T) {
	f := func(rawA, rawB []float64) bool {
		pa, pb := quickPulses(rawA), quickPulses(rawB)
		if len(pa) == 0 || len(pb) == 0 {
			return true
		}
		a, errA := New(pa)
		b, errB := New(pb)
		if errA != nil || errB != nil {
			return true
		}
		got := Add(a, b).Mean()
		want := a.Mean() + b.Mean()
		tol := 1e-9 * math.Max(1, math.Abs(want))
		return math.Abs(got-want) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickMaxDominates property-checks E[max(X,Y)] >= max(E[X], E[Y]).
func TestQuickMaxDominates(t *testing.T) {
	f := func(rawA, rawB []float64) bool {
		pa, pb := quickPulses(rawA), quickPulses(rawB)
		if len(pa) == 0 || len(pb) == 0 {
			return true
		}
		a, errA := New(pa)
		b, errB := New(pb)
		if errA != nil || errB != nil {
			return true
		}
		m := Max(a, b).Mean()
		tol := 1e-9 * math.Max(1, math.Max(math.Abs(a.Mean()), math.Abs(b.Mean())))
		return m >= a.Mean()-tol && m >= b.Mean()-tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickPrLEMonotone property-checks CDF monotonicity.
func TestQuickPrLEMonotone(t *testing.T) {
	f := func(raw []float64, x, y float64) bool {
		ps := quickPulses(raw)
		if len(ps) == 0 || math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		p, err := New(ps)
		if err != nil {
			return true
		}
		lo, hi := math.Min(x, y), math.Max(x, y)
		return p.PrLE(lo) <= p.PrLE(hi)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
