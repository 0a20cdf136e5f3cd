package availability

import (
	"math"
	"testing"
	"testing/quick"

	"cdsf/internal/pmf"
	"cdsf/internal/rng"
)

func halfOrFull() pmf.PMF {
	return pmf.MustNew([]pmf.Pulse{{Value: 0.5, Prob: 0.5}, {Value: 1, Prob: 0.5}})
}

// A fixed availability (a one-pulse Static draw) holds for all time
// and delivers work at rate a.
func TestFixed(t *testing.T) {
	p := Static{PMF: pmf.Point(0.5)}.NewProcess(rng.New(1))
	if p.At(0) != 0.5 || p.At(100) != 0.5 {
		t.Error("fixed availability not constant")
	}
	if got := p.FinishTime(10, 5); got != 20 {
		t.Errorf("FinishTime = %v, want 20", got)
	}
}

func TestStaticDrawsFromPMF(t *testing.T) {
	m := Static{PMF: halfOrFull()}
	r := rng.New(1)
	seen := map[float64]int{}
	for i := 0; i < 2000; i++ {
		p := m.NewProcess(r)
		a := p.At(0)
		if a != p.At(1e9) {
			t.Fatal("static process changed over time")
		}
		seen[a]++
	}
	if seen[0.5] < 800 || seen[1] < 800 {
		t.Errorf("draw frequencies %v far from 50/50", seen)
	}
}

func TestRedrawEpochsAndFinishTime(t *testing.T) {
	m := Redraw{PMF: halfOrFull(), Interval: 10}
	p := m.NewProcess(rng.New(2))
	// Availability is constant within an epoch.
	a0 := p.At(0)
	if p.At(9.99) != a0 {
		t.Error("availability changed within an epoch")
	}
	// FinishTime integrates availability across epochs: work 20 at
	// availability 0.5 spans 4 epochs of capacity 5 each.
	p2 := constProcess(0.5)
	if got := p2.FinishTime(0, 20); got != 40 {
		t.Errorf("FinishTime = %v, want 40", got)
	}
}

func TestRedrawFinishTimeConsistentWithAt(t *testing.T) {
	m := Redraw{PMF: halfOrFull(), Interval: 7}
	// Two processes built from identical seeds follow the same epoch
	// draws; use one for FinishTime and its twin for integration, since
	// per-process queries must be non-decreasing in time.
	p := m.NewProcess(rng.New(3))
	twin := m.NewProcess(rng.New(3))
	const work = 30.0
	finish := p.FinishTime(0, work)
	got := 0.0
	step := 0.001
	for x := 0.0; x < finish; x += step {
		got += twin.At(x) * step
	}
	if math.Abs(got-work) > 0.1 {
		t.Errorf("integrated capacity %v != work %v (finish %v)", got, work, finish)
	}
}

func TestRedrawBackwardsPanics(t *testing.T) {
	m := Redraw{PMF: halfOrFull(), Interval: 5}
	p := m.NewProcess(rng.New(4))
	p.At(100)
	defer func() {
		if recover() == nil {
			t.Error("backwards query did not panic")
		}
	}()
	p.At(0)
}

func TestMarkovStationaryMean(t *testing.T) {
	pm := pmf.MustNew([]pmf.Pulse{
		{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1, Prob: 0.5}})
	m := Markov{PMF: pm, Interval: 1, Persistence: 0.8}
	r := rng.New(5)
	sum, n := 0.0, 0
	for i := 0; i < 50; i++ {
		p := m.NewProcess(r)
		for e := 0; e < 400; e++ {
			sum += p.At(float64(e))
			n++
		}
	}
	mean := sum / float64(n)
	if math.Abs(mean-pm.Mean()) > 0.02 {
		t.Errorf("markov long-run mean = %v, want %v", mean, pm.Mean())
	}
}

func TestMarkovPersistenceZeroMatchesRedrawStats(t *testing.T) {
	pm := halfOrFull()
	m := Markov{PMF: pm, Interval: 1, Persistence: 0}
	r := rng.New(6)
	p := m.NewProcess(r)
	// With persistence 0 consecutive epochs are independent draws;
	// check the switch rate is ~0.5 (a persistent chain would be lower).
	switches, n := 0, 2000
	prev := p.At(0)
	for e := 1; e < n; e++ {
		cur := p.At(float64(e))
		if cur != prev {
			switches++
		}
		prev = cur
	}
	rate := float64(switches) / float64(n-1)
	if math.Abs(rate-0.5) > 0.05 {
		t.Errorf("switch rate = %v, want ~0.5", rate)
	}
}

func TestMarkovValidation(t *testing.T) {
	for _, bad := range []Markov{
		{PMF: halfOrFull(), Interval: 0, Persistence: 0.5},
		{PMF: halfOrFull(), Interval: 1, Persistence: 1},
		{PMF: halfOrFull(), Interval: 1, Persistence: -0.1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid markov %+v did not panic", bad)
				}
			}()
			bad.NewProcess(rng.New(1))
		}()
	}
}

// TestFinishTimeEpochBoundaryTermination is a regression test for a
// floating-point stall: with intervals whose multiples are not exactly
// representable, t = (epoch+1)*interval could floor back to the same
// epoch and loop forever with zero capacity. Explicit epoch tracking
// fixes it; this exercises many awkward intervals and start offsets.
func TestFinishTimeEpochBoundaryTermination(t *testing.T) {
	pmfs := halfOrFull()
	for _, interval := range []float64{685.5, 0.1, 1.0 / 3.0, 812.4999999, 2742.0 / 4} {
		for seed := uint64(0); seed < 5; seed++ {
			m := Markov{PMF: pmfs, Interval: interval, Persistence: 0.5}
			p := m.NewProcess(rng.New(seed))
			tm := 0.0
			for i := 0; i < 50; i++ {
				next := p.FinishTime(tm, 10*interval+float64(i))
				if next <= tm {
					t.Fatalf("interval %v seed %d: no progress at %v", interval, seed, tm)
				}
				tm = next
			}
			r := Redraw{Interval: interval, PMF: pmfs}
			pr := r.NewProcess(rng.New(seed))
			if got := pr.FinishTime(interval*7, interval); got <= interval*7 {
				t.Fatalf("redraw stalled at boundary (interval %v)", interval)
			}
		}
	}
}

// TestQuickFinishTimeMonotone property-checks FinishTime monotonicity
// in work for all model families.
func TestQuickFinishTimeMonotone(t *testing.T) {
	f := func(seed uint64, w1, w2 float64) bool {
		a := math.Mod(math.Abs(w1), 100) + 0.01
		b := math.Mod(math.Abs(w2), 100) + 0.01
		lo, hi := math.Min(a, b), math.Max(a, b)
		for _, m := range []Model{
			Static{PMF: halfOrFull()},
			Redraw{PMF: halfOrFull(), Interval: 3},
			Markov{PMF: halfOrFull(), Interval: 3, Persistence: 0.5},
		} {
			// Two identical processes (same split seed) keep query order
			// valid while comparing different work amounts.
			p1 := m.NewProcess(rng.New(seed))
			p2 := m.NewProcess(rng.New(seed))
			f1 := p1.FinishTime(0, lo)
			f2 := p2.FinishTime(0, hi)
			if f2 < f1-1e-9 {
				return false
			}
			// Work w at availability <= 1 takes at least w.
			if f2 < hi-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
