package availability

import (
	"math"
	"testing"

	"cdsf/internal/pmf"
	"cdsf/internal/rng"
)

func TestSharedLoadCorrelation(t *testing.T) {
	shared := pmf.MustNew([]pmf.Pulse{{Value: 0.3, Prob: 0.5}, {Value: 1, Prob: 0.5}})
	idio := pmf.MustNew([]pmf.Pulse{{Value: 0.8, Prob: 0.5}, {Value: 1, Prob: 0.5}})

	correlation := func(mix float64) float64 {
		m := &SharedLoad{Shared: shared, Idio: idio, Mix: mix, Interval: 1, Persistence: 0}
		r := rng.New(3)
		p1 := m.NewProcess(r)
		p2 := m.NewProcess(r)
		const n = 4000
		var sum1, sum2, sum11, sum22, sum12 float64
		for e := 0; e < n; e++ {
			a1 := p1.At(float64(e))
			a2 := p2.At(float64(e))
			sum1 += a1
			sum2 += a2
			sum11 += a1 * a1
			sum22 += a2 * a2
			sum12 += a1 * a2
		}
		m1, m2 := sum1/n, sum2/n
		v1 := sum11/n - m1*m1
		v2 := sum22/n - m2*m2
		cov := sum12/n - m1*m2
		if v1 <= 0 || v2 <= 0 {
			return 0
		}
		return cov / math.Sqrt(v1*v2)
	}

	strong := correlation(1)
	weak := correlation(0)
	if strong < 0.5 {
		t.Errorf("mix=1 correlation = %v, want strong positive", strong)
	}
	if math.Abs(weak) > 0.15 {
		t.Errorf("mix=0 correlation = %v, want ~0", weak)
	}
	if strong <= weak {
		t.Errorf("correlation did not increase with mix: %v vs %v", strong, weak)
	}
}

func TestSharedLoadBoundsAndExpected(t *testing.T) {
	shared := pmf.MustNew([]pmf.Pulse{{Value: 0.5, Prob: 0.5}, {Value: 1, Prob: 0.5}})
	idio := pmf.MustNew([]pmf.Pulse{{Value: 0.6, Prob: 0.5}, {Value: 1, Prob: 0.5}})
	m := &SharedLoad{Shared: shared, Idio: idio, Mix: 1, Interval: 5, Persistence: 0.5}
	r := rng.New(9)
	p := m.NewProcess(r)
	for e := 0; e < 1000; e++ {
		a := p.At(float64(e) * 5)
		if a < minAvail || a > 1 {
			t.Fatalf("availability %v out of bounds", a)
		}
	}
}

func TestSharedLoadFinishTime(t *testing.T) {
	point := pmf.Point(0.5)
	m := &SharedLoad{Shared: point, Idio: pmf.Point(1), Mix: 1, Interval: 10, Persistence: 0}
	p := m.NewProcess(rng.New(1))
	// Constant availability 0.5: work 7 takes 14.
	if got := p.FinishTime(0, 7); math.Abs(got-14) > 1e-9 {
		t.Errorf("FinishTime = %v, want 14", got)
	}
}

func TestSharedLoadValidation(t *testing.T) {
	good := pmf.Point(1)
	bads := []*SharedLoad{
		{Shared: good, Idio: good, Mix: 1, Interval: 0, Persistence: 0},
		{Shared: good, Idio: good, Mix: -0.1, Interval: 1, Persistence: 0},
		{Shared: good, Idio: good, Mix: 1.1, Interval: 1, Persistence: 0},
		{Shared: good, Idio: good, Mix: 1, Interval: 1, Persistence: 1},
	}
	for i, m := range bads {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad shared-load config %d did not panic", i)
				}
			}()
			m.NewProcess(rng.New(1))
		}()
	}
}
