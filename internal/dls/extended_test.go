package dls

import "testing"

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
	s := newScheduler(t, "AWF", Setup{Iterations: 1000, Workers: 2})
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
	for _, name := range []string{"AWF-D", "AWF-E", "AWF"} {
		for _, cfg := range []struct{ n, p int }{{1, 1}, {13, 4}, {997, 8}, {5000, 16}} {
			s := newScheduler(t, name, Setup{Iterations: cfg.n, Workers: cfg.p})
			chunks := drain(t, name, s, cfg.p, func(w, k int) float64 { return float64(k) })
			if got := sumChunks(chunks); got != cfg.n {
				t.Errorf("%s(%d,%d): scheduled %d", name, cfg.n, cfg.p, got)
			}
		}
	}
}
