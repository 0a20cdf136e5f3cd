package dls

import (
	"slices"
	"testing"
)

func TestTFSSDecreasingBatches(t *testing.T) {
	s := newScheduler(t, "TFSS", Setup{Iterations: 1000, Workers: 4})
	// First batch = N/2 = 500 split into chunks of 125.
	if k := s.Next(0); k != 125 {
		t.Errorf("TFSS first chunk = %d, want 125", k)
	}
	// Drain and check batch chunk sizes never increase.
	s2 := newScheduler(t, "TFSS", Setup{Iterations: 1000, Workers: 4})
	prev := 1 << 30
	grew := 0
	for {
		k := s2.Next(0)
		if k == 0 {
			break
		}
		if k > prev {
			grew++
		}
		prev = k
	}
	if grew > 0 {
		t.Errorf("TFSS chunk sizes grew %d times", grew)
	}
}

func TestFISSIncreasingChunks(t *testing.T) {
	s := newScheduler(t, "FISS", Setup{Iterations: 4000, Workers: 4})
	var sizes []int
	for {
		k := s.Next(0)
		if k == 0 {
			break
		}
		sizes = append(sizes, k)
	}
	if len(sizes) < 3 {
		t.Fatalf("FISS used only %d chunks", len(sizes))
	}
	// Sizes are non-decreasing except possibly the final remainder.
	for i := 1; i < len(sizes)-1; i++ {
		if sizes[i] < sizes[i-1] {
			t.Errorf("FISS chunk %d shrank: %v", i, sizes)
			break
		}
	}
	if sizes[0] >= sizes[len(sizes)-2] {
		t.Errorf("FISS chunks did not grow: %v", sizes)
	}
}

// TestFISSStageWiseChunks pins FISS to its published closed form at
// N = 4096: chunk k is round(first + floor(k/P)·incr), four stages of P
// equal chunks that sum to N exactly.
func TestFISSStageWiseChunks(t *testing.T) {
	stages := map[int][]int{
		2:  {341, 455, 569, 683},
		4:  {171, 228, 284, 341},
		8:  {85, 114, 142, 171},
		16: {43, 57, 71, 85},
	}
	for _, p := range []int{2, 4, 8, 16} {
		var want []int
		for _, k := range stages[p] {
			for w := 0; w < p; w++ {
				want = append(want, k)
			}
		}
		s := newScheduler(t, "FISS", Setup{Iterations: 4096, Workers: p})
		var got []int
		for k := s.Next(0); k > 0; k = s.Next(0) {
			got = append(got, k)
		}
		if !slices.Equal(got, want) {
			t.Errorf("P=%d: FISS chunks %v, want %v", p, got, want)
		}
	}
}

func TestVISSGeometricGrowth(t *testing.T) {
	s := newScheduler(t, "VISS", Setup{Iterations: 10000, Workers: 4})
	k1 := s.Next(0)
	k2 := s.Next(0)
	k3 := s.Next(0)
	if !(k1 < k2 && k2 < k3) {
		t.Errorf("VISS chunks not growing: %d, %d, %d", k1, k2, k3)
	}
	ratio := float64(k2) / float64(k1)
	if ratio < 1.3 || ratio > 1.7 {
		t.Errorf("VISS growth ratio %.2f, want ~1.5", ratio)
	}
}

func TestAWFDIncludesOverheadInWeights(t *testing.T) {
	// Two equally fast workers, but worker 1's chunks carry no extra
	// cost while the overhead term h dominates small chunks. AWF-D adds
	// h to every measurement, AWF-B does not; with per-report equal
	// elapsed both must still converge to near-equal weights — the
	// distinguishing behaviour is that AWF-D's recorded times are
	// systematically larger. We check it still conserves iterations and
	// adapts to a genuinely slower worker.
	s := newScheduler(t, "AWF-D", Setup{Iterations: 4000, Workers: 2, Overhead: 5})
	iters := [2]int{}
	done := [2]bool{}
	for !done[0] || !done[1] {
		for w := 0; w < 2; w++ {
			if done[w] {
				continue
			}
			k := s.Next(w)
			if k == 0 {
				done[w] = true
				continue
			}
			iters[w] += k
			speed := 1.0
			if w == 1 {
				speed = 4
			}
			s.Report(w, k, float64(k)*speed)
		}
	}
	if iters[0]+iters[1] != 4000 {
		t.Fatalf("AWF-D scheduled %d iterations", iters[0]+iters[1])
	}
	if iters[0] <= iters[1] {
		t.Errorf("AWF-D did not favour the fast worker: %v", iters)
	}
}

func TestAWFTimestepLearnsAcrossSweeps(t *testing.T) {
	tech, ok := Get("AWF")
	if !ok {
		t.Fatal("AWF missing")
	}
	s, err := tech.New(Setup{Iterations: 1000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts, ok := s.(TimeStepper)
	if !ok {
		t.Fatal("AWF does not implement TimeStepper")
	}
	sweep := func() [2]int {
		iters := [2]int{}
		done := [2]bool{}
		for !done[0] || !done[1] {
			for w := 0; w < 2; w++ {
				if done[w] {
					continue
				}
				k := s.Next(w)
				if k == 0 {
					done[w] = true
					continue
				}
				iters[w] += k
				speed := 1.0
				if w == 1 {
					speed = 3
				}
				s.Report(w, k, float64(k)*speed)
			}
		}
		return iters
	}
	first := sweep()
	// Within the first sweep AWF uses the a-priori (equal) weights: the
	// split stays near 50/50 regardless of measured speeds.
	if ratio := float64(first[0]) / float64(first[1]); ratio > 1.4 {
		t.Errorf("AWF adapted mid-sweep: %v", first)
	}
	ts.EndStep()
	if s.Remaining() != 1000 {
		t.Fatalf("EndStep did not re-arm: remaining %d", s.Remaining())
	}
	second := sweep()
	// After the step boundary the learned 3x speed ratio applies.
	if ratio := float64(second[0]) / float64(second[1]); ratio < 1.8 {
		t.Errorf("AWF did not adapt across sweeps: %v (ratio %.2f)", second, ratio)
	}
}

func TestExtendedTechniquesConserve(t *testing.T) {
	for _, name := range []string{"AWF-D", "AWF-E", "AWF", "TFSS", "FISS", "VISS"} {
		for _, cfg := range []struct{ n, p int }{{1, 1}, {13, 4}, {997, 8}, {5000, 16}} {
			s := newScheduler(t, name, Setup{Iterations: cfg.n, Workers: cfg.p})
			chunks := drain(t, s, cfg.p, func(w, k int) float64 { return float64(k) })
			if got := sumChunks(chunks); got != cfg.n {
				t.Errorf("%s(%d,%d): scheduled %d", name, cfg.n, cfg.p, got)
			}
		}
	}
}
