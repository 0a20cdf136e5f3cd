package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// polar is the sequential polar method NormFloat64 used before
// NormFloat64s existed, kept as the reference the batched fill must
// match bit for bit.
func polar(r *Source) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// TestNormFloat64sMatchesPolar checks that a fill of n values equals n
// successive sequential polar draws and leaves the source in the same
// state, for lengths 0-3000, odd and even, starting with and without a
// cached spare.
func TestNormFloat64sMatchesPolar(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 999, 1000, 1001, 2047, 2048, 2999, 3000}
	for _, spare := range []bool{false, true} {
		for _, n := range lengths {
			a, b := New(uint64(n)+77), New(uint64(n)+77)
			if spare {
				if x, y := a.NormFloat64(), polar(b); x != y || !a.hasSpare {
					t.Fatalf("first draw %v vs %v, spare cached %v", x, y, a.hasSpare)
				}
			}
			got := make([]float64, n)
			a.NormFloat64s(got)
			for i, x := range got {
				if want := polar(b); math.Float64bits(x) != math.Float64bits(want) {
					t.Fatalf("spare=%v n=%d: value %d is %v, sequential %v", spare, n, i, x, want)
				}
			}
			// The observable state: whether a spare is cached and its
			// value, then the xoshiro state.
			if a.hasSpare != b.hasSpare || a.NormFloat64() != polar(b) || a.Uint64() != b.Uint64() {
				t.Fatalf("spare=%v n=%d: source state differs after the fill", spare, n)
			}
		}
	}
}

// TestNormFloat64sConcatenate checks that fills of mixed lengths,
// interleaved with other draws from the source, give the same stream
// as one draw at a time.
func TestNormFloat64sConcatenate(t *testing.T) {
	a, b := New(3), New(3)
	buf := make([]float64, 40)
	for round := 0; round < 200; round++ {
		n := (round * 7) % 41
		a.NormFloat64s(buf[:n])
		for i := 0; i < n; i++ {
			if want := b.NormFloat64(); buf[i] != want {
				t.Fatalf("round %d: value %d is %v, NormFloat64 %v", round, i, buf[i], want)
			}
		}
		if round%3 == 0 && a.Float64() != b.Float64() {
			t.Fatalf("round %d: interleaved Float64 differs", round)
		}
	}
}

// TestNormalStreamPinned pins 10,001 NormFloat64 draws from seed 2024,
// with a Uint64 interleaved after every seventh, to a SHA-256 recorded
// when NormFloat64 was its own sequential loop.
func TestNormalStreamPinned(t *testing.T) {
	r := New(2024)
	h := sha256.New()
	for i := 0; i < 10001; i++ {
		x := r.NormFloat64()
		if i%7 == 3 {
			binary.Write(h, binary.LittleEndian, r.Uint64())
		}
		binary.Write(h, binary.LittleEndian, x)
	}
	const pinned = "0645714b8b9239046ed15696ae8ce3485c3a50b54175b3c799af9608420b2d98"
	if d := hex.EncodeToString(h.Sum(nil)); d != pinned {
		t.Errorf("normal stream digest %s, pinned %s", d, pinned)
	}
}
