package stats

import (
	"math"
	"testing"

	"cdsf/internal/rng"
)

// fillDist is one distribution Fill must reproduce. A slow one falls
// back to Truncated's quantile transform on some or most values, each
// after ~1000 inner draws, so the tests fill it at short lengths only.
type fillDist struct {
	name string
	d    Dist
	slow bool
}

// fillDists cover each of Fill's three routes (Normal's batched polar
// method, Truncated's block rejection, one Sample at a time), with
// Truncated loose, tight enough that about half its values fall back
// to the quantile transform, and so tight that nearly all do, and with
// a normal truncated on both sides of zero.
func fillDists() []fillDist {
	return []fillDist{
		{"normal", NewNormal(2, 0.7), false},
		{"truncated loose", Truncated{Dist: NewNormal(1, 0.3), Lo: 1e-3, Hi: 1e3}, false},
		{"truncated half fallback", Truncated{Dist: NewNormal(0, 1), Lo: 3, Hi: 3.2}, true},
		{"truncated fallback", Truncated{Dist: NewNormal(1, 1e7), Lo: 1e-3, Hi: 1e3}, true},
		{"truncated gamma", Truncated{Dist: GammaFromMoments(1, 0.8), Lo: 0.2, Hi: 2}, false},
		{"lognormal", LogNormalFromMoments(1, 0.5), false},
		{"gamma", GammaFromMoments(1, 0.5), false},
		{"gamma shape < 1", GammaFromMoments(1, 2), false},
		{"exponential", NewExponential(2), false},
		{"truncated below zero", Truncated{Dist: NewNormal(0.2, 1), Lo: -5, Hi: 5}, false},
	}
}

// checkFill fails t unless Fill(d) of n values from a source seeded
// with seed (after one NormFloat64 when spare, which caches a spare)
// equals n successive d.Sample calls on an identical source bit for
// bit, and leaves the source in the same observable state.
func checkFill(t *testing.T, name string, d Dist, seed uint64, n int, spare bool) {
	t.Helper()
	a, b := rng.New(seed), rng.New(seed)
	if spare {
		a.NormFloat64()
		b.NormFloat64()
	}
	got := make([]float64, n)
	Fill(d, a, got)
	for i, x := range got {
		if want := d.Sample(b); math.Float64bits(x) != math.Float64bits(want) {
			t.Fatalf("%s seed %d n=%d spare=%v: value %d is %v, Sample gives %v", name, seed, n, spare, i, x, want)
		}
	}
	if a.NormFloat64() != b.NormFloat64() || a.Uint64() != b.Uint64() {
		t.Fatalf("%s seed %d n=%d spare=%v: source state differs after the fill", name, seed, n, spare)
	}
}

// TestFillMatchesSample checks Fill against successive Sample calls
// for lengths 0-3000, odd and even, with and without a cached spare.
// The slow distributions run the lengths up to 64.
func TestFillMatchesSample(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 8, 63, 64, 999, 1000, 1001, 2048, 2999, 3000}
	for _, c := range fillDists() {
		for _, n := range lengths {
			if c.slow && n > 64 {
				continue
			}
			for _, spare := range []bool{false, true} {
				checkFill(t, c.name, c.d, uint64(n)+5, n, spare)
			}
		}
	}
}

// TestTruncatedFallbackFires checks that the slow truncations of
// fillDists reach Sample's quantile fallback, so TestFillMatchesSample
// and FuzzFill exercise it: it replays Sample's rejection loop and
// counts the values that end in the fallback.
func TestTruncatedFallbackFires(t *testing.T) {
	for _, c := range fillDists() {
		if !c.slow {
			continue
		}
		tr := c.d.(Truncated)
		r := rng.New(9)
		fallbacks := 0
		for i := 0; i < 64; i++ {
			accepted := false
			for a := 0; a < truncAttempts && !accepted; a++ {
				x := tr.Dist.Sample(r)
				accepted = x >= tr.Lo && x <= tr.Hi
			}
			if !accepted {
				r.Float64()
				fallbacks++
			}
		}
		if fallbacks == 0 {
			t.Errorf("%s: no value of 64 fell back to the quantile transform", c.name)
		}
	}
}

// FuzzFill checks Fill against successive Sample calls for fuzzed
// seeds, lengths, distributions and spare states.
func FuzzFill(f *testing.F) {
	f.Add(uint64(1), uint16(7), uint8(0), false)
	f.Add(uint64(2), uint16(1001), uint8(1), true)
	f.Add(uint64(3), uint16(3), uint8(3), true)
	dists := fillDists()
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, kind uint8, spare bool) {
		c := dists[int(kind)%len(dists)]
		size := int(n) % 3001
		if c.slow {
			size %= 65
		}
		checkFill(t, c.name, c.d, seed, size, spare)
	})
}
