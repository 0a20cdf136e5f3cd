package availability

import (
	"math"
	"testing"

	"cdsf/internal/pmf"
	"cdsf/internal/rng"
)

func TestBlackoutOverlay(t *testing.T) {
	m := Blackout{
		Base:     Static{PMF: pmf.Point(1)},
		Prob:     0.3,
		Interval: 10,
	}
	r := rng.New(4)
	p := m.NewProcess(r)
	outages, n := 0, 5000
	for e := 0; e < n; e++ {
		a := p.At(float64(e) * 10)
		switch a {
		case 1e-3:
			outages++
		case 1.0:
		default:
			t.Fatalf("unexpected availability %v", a)
		}
	}
	rate := float64(outages) / float64(n)
	if math.Abs(rate-0.3) > 0.03 {
		t.Errorf("outage rate = %v, want ~0.3", rate)
	}
}

func TestBlackoutFinishTimeProgresses(t *testing.T) {
	m := Blackout{Base: Static{PMF: pmf.Point(1)}, Prob: 0.5, Interval: 3}
	p := m.NewProcess(rng.New(9))
	tm := 0.0
	for i := 0; i < 100; i++ {
		next := p.FinishTime(tm, 5)
		if next <= tm {
			t.Fatalf("no progress at %v", tm)
		}
		// Work 5 at full speed takes 5; outages only stretch it.
		if next < tm+5-1e-9 {
			t.Fatalf("finished faster than dedicated: %v -> %v", tm, next)
		}
		tm = next
	}
}

func TestBlackoutValidation(t *testing.T) {
	bads := []Blackout{
		{Base: nil, Prob: 0.1, Interval: 1},
		{Base: Static{PMF: pmf.Point(1)}, Prob: 1, Interval: 1},
		{Base: Static{PMF: pmf.Point(1)}, Prob: 0.1, Interval: 0},
	}
	for i, m := range bads {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad blackout config %d did not panic", i)
				}
			}()
			m.NewProcess(rng.New(1))
		}()
	}
}
