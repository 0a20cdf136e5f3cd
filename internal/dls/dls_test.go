package dls

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// drain runs technique name's scheduler s round-robin until
// exhaustion, returning every chunk in dispatch order as (worker, size)
// pairs. report, when non-nil, maps (worker, size) to the elapsed time
// fed back to the scheduler.
func drain(t *testing.T, name string, s Scheduler, workers int, report func(w, size int) float64) [][2]int {
	t.Helper()
	var chunks [][2]int
	active := workers
	done := make([]bool, workers)
	for active > 0 {
		progressed := false
		for w := 0; w < workers; w++ {
			if done[w] {
				continue
			}
			k := s.Next(w)
			if k == 0 {
				done[w] = true
				active--
				continue
			}
			progressed = true
			if k < 0 {
				t.Fatalf("%s returned negative chunk %d", name, k)
			}
			chunks = append(chunks, [2]int{w, k})
			if report != nil {
				s.Report(w, k, report(w, k))
			}
			if len(chunks) > 1_000_000 {
				t.Fatalf("%s did not terminate", name)
			}
		}
		if !progressed && active > 0 {
			// All remaining workers were told 0; they are done.
			break
		}
	}
	return chunks
}

func sumChunks(chunks [][2]int) int {
	s := 0
	for _, c := range chunks {
		s += c[1]
	}
	return s
}

func newScheduler(t *testing.T, name string, s Setup) Scheduler {
	t.Helper()
	tech, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := tech.New(s)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return sched
}

func TestRegistry(t *testing.T) {
	want := []string{"AF", "AWF", "AWF-B", "AWF-C", "AWF-D", "AWF-E",
		"FAC", "FSC", "SS", "STATIC", "TSS", "WF"}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("registered %v, want %v", got, want)
	}
	for _, name := range []string{"fac", " FAC ", "awf-b\t"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	// Unknown names, the removed techniques among them, list the
	// registered ones.
	for _, name := range []string{"nope", "", "GSS", "TFSS", "FISS", "VISS"} {
		_, err := ByName(name)
		if err == nil || !strings.Contains(err.Error(), strings.Join(want, ", ")) {
			t.Errorf("ByName(%q) = %v, want an error listing %v", name, err, want)
		}
	}
}

func TestPaperRobustSet(t *testing.T) {
	set := PaperRobustSet()
	want := []string{"FAC", "WF", "AWF-B", "AF"}
	for i, tech := range set {
		if tech.Name != want[i] {
			t.Errorf("robust set[%d] = %s, want %s", i, tech.Name, want[i])
		}
	}
}

func TestAllTechniquesScheduleEveryIteration(t *testing.T) {
	for _, tech := range All() {
		for _, cfg := range []struct{ n, p int }{
			{1, 1}, {7, 3}, {100, 4}, {1000, 8}, {4096, 16}, {5, 8},
		} {
			s, err := tech.New(Setup{Iterations: cfg.n, Workers: cfg.p})
			if err != nil {
				t.Fatalf("%s(%d,%d): %v", tech.Name, cfg.n, cfg.p, err)
			}
			chunks := drain(t, tech.Name, s, cfg.p, func(w, k int) float64 { return float64(k) })
			if got := sumChunks(chunks); got != cfg.n {
				t.Errorf("%s(%d,%d): scheduled %d iterations", tech.Name, cfg.n, cfg.p, got)
			}
			if s.Remaining() != 0 {
				t.Errorf("%s(%d,%d): %d remaining after drain", tech.Name, cfg.n, cfg.p, s.Remaining())
			}
		}
	}
}

func TestSetupValidation(t *testing.T) {
	bad := []Setup{
		{Iterations: 0, Workers: 1},
		{Iterations: 10, Workers: 0},
		{Iterations: 10, Workers: 2, Weights: []float64{1}},
		{Iterations: 10, Workers: 2, Weights: []float64{1, -1}},
	}
	for _, tech := range All() {
		for i, s := range bad {
			if _, err := tech.New(s); err == nil {
				t.Errorf("%s accepted bad setup %d", tech.Name, i)
			}
		}
	}
}

func TestStaticOneChunkPerWorker(t *testing.T) {
	s := newScheduler(t, "STATIC", Setup{Iterations: 100, Workers: 4})
	chunks := drain(t, "STATIC", s, 4, nil)
	if len(chunks) != 4 {
		t.Fatalf("STATIC dispatched %d chunks, want 4", len(chunks))
	}
	for _, c := range chunks {
		if c[1] != 25 {
			t.Errorf("STATIC chunk = %d, want 25", c[1])
		}
	}
	// A worker asking twice gets nothing the second time, even with
	// iterations remaining elsewhere.
	s2 := newScheduler(t, "STATIC", Setup{Iterations: 100, Workers: 4})
	if k := s2.Next(0); k != 25 {
		t.Fatalf("first chunk = %d", k)
	}
	if k := s2.Next(0); k != 0 {
		t.Errorf("second request served %d (STATIC must not rebalance)", k)
	}
}

func TestSSUnitChunks(t *testing.T) {
	s := newScheduler(t, "SS", Setup{Iterations: 10, Workers: 3})
	chunks := drain(t, "SS", s, 3, nil)
	if len(chunks) != 10 {
		t.Fatalf("SS dispatched %d chunks", len(chunks))
	}
	for _, c := range chunks {
		if c[1] != 1 {
			t.Errorf("SS chunk = %d", c[1])
		}
	}
}

func TestTSSLinearDecrement(t *testing.T) {
	s := newScheduler(t, "TSS", Setup{Iterations: 1000, Workers: 4})
	// f = 125, l = 1, C = ceil(2000/126) = 16, delta = 124/15 ~ 8.27.
	k1 := s.Next(0)
	k2 := s.Next(1)
	k3 := s.Next(2)
	if k1 != 125 {
		t.Errorf("TSS first chunk = %d, want 125", k1)
	}
	if d1, d2 := k1-k2, k2-k3; d1 < 7 || d1 > 10 || d2 < 7 || d2 > 10 {
		t.Errorf("TSS decrements %d, %d not ~8", d1, d2)
	}
}

func TestFSCUsesOverheadFormula(t *testing.T) {
	// With sigma and overhead, k = (sqrt(2)*N*h/(sigma*P*sqrt(ln P)))^(2/3).
	s := newScheduler(t, "FSC", Setup{
		Iterations: 10000, Workers: 8, Overhead: 2, IterMean: 1, IterStdDev: 0.5,
	})
	want := math.Pow(math.Sqrt2*10000*2/(0.5*8*math.Sqrt(math.Log(8))), 2.0/3.0)
	k := s.Next(0)
	if math.Abs(float64(k)-want) > 1.5 {
		t.Errorf("FSC chunk = %d, want ~%.1f", k, want)
	}
	// Chunks stay fixed.
	if k2 := s.Next(1); k2 != k {
		t.Errorf("FSC chunk changed: %d then %d", k, k2)
	}
	// Fallback without sigma: N/(2P).
	s2 := newScheduler(t, "FSC", Setup{Iterations: 1000, Workers: 4})
	if k := s2.Next(0); k != 125 {
		t.Errorf("FSC fallback chunk = %d, want 125", k)
	}
}

func TestFACBatchStructure(t *testing.T) {
	s := newScheduler(t, "FAC", Setup{Iterations: 1000, Workers: 4})
	// Batch 1 covers 500 iterations in chunks of 125.
	for i := 0; i < 4; i++ {
		if k := s.Next(i); k != 125 {
			t.Fatalf("FAC batch-1 chunk = %d, want 125", k)
		}
	}
	// Batch 2 covers 250 in chunks of 63 (ceil(250/4)).
	if k := s.Next(0); k != 63 {
		t.Errorf("FAC batch-2 chunk = %d, want 63", k)
	}
}

func TestWFWeightsSplitBatch(t *testing.T) {
	s := newScheduler(t, "WF", Setup{
		Iterations: 1000, Workers: 2, Weights: []float64{3, 1},
	})
	// Batch 1 = 500, equal share 250; weights normalized to {1.5, 0.5}:
	// worker 0 gets 375, worker 1 gets 125.
	if k := s.Next(0); k != 375 {
		t.Errorf("WF heavy worker chunk = %d, want 375", k)
	}
	if k := s.Next(1); k != 125 {
		t.Errorf("WF light worker chunk = %d, want 125", k)
	}
}

func TestWFEqualWeightsMatchesFAC(t *testing.T) {
	wf := newScheduler(t, "WF", Setup{Iterations: 777, Workers: 3})
	fac := newScheduler(t, "FAC", Setup{Iterations: 777, Workers: 3})
	for {
		kw := wf.Next(0)
		kf := fac.Next(0)
		if kw != kf {
			t.Fatalf("WF %d != FAC %d with equal weights", kw, kf)
		}
		if kw == 0 {
			break
		}
	}
}

func TestAWFBAdaptsToSlowWorker(t *testing.T) {
	s := newScheduler(t, "AWF-B", Setup{Iterations: 4000, Workers: 2})
	// Worker 1 runs 4x slower. Feed several batches and check worker 0
	// accumulates substantially more iterations.
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
	if iters[0] <= iters[1] {
		t.Errorf("AWF-B gave fast worker %d <= slow worker %d", iters[0], iters[1])
	}
	if ratio := float64(iters[0]) / float64(iters[1]); ratio < 1.5 {
		t.Errorf("AWF-B adaptation ratio %.2f too weak", ratio)
	}
}

func TestAWFCAdaptsFasterThanAWFB(t *testing.T) {
	run := func(name string) [2]int {
		s := newScheduler(t, name, Setup{Iterations: 2000, Workers: 2})
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
					speed = 8
				}
				s.Report(w, k, float64(k)*speed)
			}
		}
		return iters
	}
	b := run("AWF-B")
	c := run("AWF-C")
	// Both adapt; AWF-C must not be substantially worse than AWF-B at
	// skewing toward the fast worker.
	rb := float64(b[0]) / float64(b[1])
	rc := float64(c[0]) / float64(c[1])
	if rc < rb*0.8 {
		t.Errorf("AWF-C ratio %.2f much weaker than AWF-B %.2f", rc, rb)
	}
}

func TestAFAdaptsChunksToRates(t *testing.T) {
	s := newScheduler(t, "AF", Setup{Iterations: 10000, Workers: 2})
	// Bootstrap both workers with measurements: worker 0 fast (mu=1),
	// worker 1 slow (mu=5).
	k0 := s.Next(0)
	s.Report(0, k0, float64(k0))
	k1 := s.Next(1)
	s.Report(1, k1, float64(k1)*5)
	// Second round: chunks should now be roughly rate-proportional.
	c0 := s.Next(0)
	c1 := s.Next(1)
	if c0 <= c1 {
		t.Errorf("AF fast-worker chunk %d <= slow-worker chunk %d", c0, c1)
	}
	if ratio := float64(c0) / float64(c1); ratio < 2 || ratio > 10 {
		t.Errorf("AF chunk ratio = %.2f, want roughly the 5x rate ratio", ratio)
	}
}

func TestAFBatchCap(t *testing.T) {
	s := newScheduler(t, "AF", Setup{Iterations: 10000, Workers: 2})
	k0 := s.Next(0)
	s.Report(0, k0, float64(k0))
	k1 := s.Next(1)
	s.Report(1, k1, float64(k1))
	// With equal rates the cap limits each chunk to about half the
	// remaining divided by the two workers.
	remaining := s.Remaining()
	c := s.Next(0)
	if c > remaining/2/2+remaining/10 {
		t.Errorf("AF chunk %d exceeds the half-remaining share cap (remaining %d)", c, remaining)
	}
}

func TestReportIgnoresGarbage(t *testing.T) {
	for _, name := range []string{"AF", "AWF-B", "AWF-C"} {
		s := newScheduler(t, name, Setup{Iterations: 100, Workers: 2})
		s.Report(0, 0, 5)  // zero size
		s.Report(0, 5, -1) // negative elapsed
		s.Report(1, -3, 2) // negative size
		chunks := drain(t, name, s, 2, func(w, k int) float64 { return float64(k) })
		if sumChunks(chunks) != 100 {
			t.Errorf("%s lost iterations after garbage reports", name)
		}
	}
}

// TestQuickChunkConservation property-checks that every technique
// schedules exactly N iterations for arbitrary sizes, worker counts,
// and measured speeds.
func TestQuickChunkConservation(t *testing.T) {
	techs := All()
	f := func(nRaw uint16, pRaw, techRaw uint8, speedRaw [8]uint8) bool {
		n := int(nRaw)%5000 + 1
		p := int(pRaw)%12 + 1
		tech := techs[int(techRaw)%len(techs)]
		s, err := tech.New(Setup{Iterations: n, Workers: p})
		if err != nil {
			return false
		}
		total := 0
		done := make([]bool, p)
		active := p
		guard := 0
		for active > 0 {
			for w := 0; w < p; w++ {
				if done[w] {
					continue
				}
				k := s.Next(w)
				if k < 0 || k > n {
					return false
				}
				if k == 0 {
					done[w] = true
					active--
					continue
				}
				total += k
				speed := float64(speedRaw[w%8]%7) + 1
				s.Report(w, k, float64(k)*speed)
				if guard++; guard > 200000 {
					return false
				}
			}
		}
		return total == n && s.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
