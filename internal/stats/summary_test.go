package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("variance = %v", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Errorf("stddev = %v", s)
	}
}

func TestEmptySliceNaN(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) {
		t.Error("empty-slice summaries should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 {
		t.Error("min/max wrong")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := QuantileSorted(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h := NewHistogram(xs, 5)
	if h.Total != 10 {
		t.Fatalf("total = %d", h.Total)
	}
	sum := 0
	for _, c := range h.Counts {
		sum += c
	}
	if sum != 10 {
		t.Errorf("counts sum = %d", sum)
	}
}

func TestHistogramClampsOutliers(t *testing.T) {
	h := NewHistogram([]float64{0, 10}, 2)
	h.Observe(-5)
	h.Observe(100)
	if h.Counts[0] != 2 || h.Counts[1] != 2 {
		t.Errorf("clamping failed: %v", h.Counts)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram([]float64{3, 3, 3}, 4)
	if h.Total != 3 {
		t.Errorf("total = %d", h.Total)
	}
}

// TestQuickQuantileBounded property-checks that sample quantiles stay
// within [min, max].
func TestQuickQuantileBounded(t *testing.T) {
	f := func(raw []float64, praw float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			// Bound magnitudes so interpolation differences cannot
			// overflow; simulator times are far below this.
			if !math.IsNaN(x) && math.Abs(x) <= 1e150 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := math.Abs(praw)
		p -= math.Floor(p)
		sort.Float64s(xs)
		q := QuantileSorted(xs, p)
		return q >= Min(xs)-1e-9 && q <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
