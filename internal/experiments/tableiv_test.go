package experiments

import (
	"context"
	"fmt"
	"testing"

	"cdsf/internal/ra"
)

// TestPaperTableIV verifies that the naive load-balancing policy and the
// exhaustive search reproduce the paper's Table IV allocations.
func TestPaperTableIV(t *testing.T) {
	f := Framework()
	prob := &ra.Problem{Sys: f.Sys, Batch: f.Batch, Deadline: f.Deadline}

	naive, err := ra.NaiveLoadBalance{}.AllocateContext(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	if want := PaperNaiveAllocation(); !naive.Equal(want) {
		t.Errorf("naive IM allocation = %v, want %v", naive, want)
	}

	robust, err := ra.Exhaustive{}.AllocateContext(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	if want := PaperRobustAllocation(); !robust.Equal(want) {
		t.Errorf("robust IM allocation = %v, want %v", robust, want)
	}
}

// registryBest holds, per slack-1.2 SyntheticInstance(1000*s+apps, ...)
// of the scale study's sizes, the best phi_1 any of fifteen Stage-I
// heuristics reached when exhaustive could not run at 10 applications:
// the eight registered ones plus anneal, genetic, random, maxmin,
// duplex, minimal and portfolio, deleted after the tournaments in
// EXPERIMENTS.md.
var registryBest = []struct {
	apps, t1, t2, s int
	best            float64
}{
	{3, 4, 8, 1, 0x1.b0a3d70a3d6bep-01},
	{3, 4, 8, 2, 0x1.7d70a3d70a362p-01},
	{3, 4, 8, 3, 0x1.7d70a3d70a3a9p-01},
	{3, 4, 8, 4, 0x1.f851eb851eb2cp-01},
	{3, 4, 8, 5, 0x1.1e147ae147a9cp-01},
	{3, 4, 8, 6, 0x1.5fe0ded288c81p-01},
	{3, 4, 8, 7, 0x1.344189374bc4bp-01},
	{3, 4, 8, 8, 0x1.5b1c432ca5781p-01},
	{3, 4, 8, 9, 0x1.1e147ae147a9cp-01},
	{3, 4, 8, 10, 0x1.77b7e90ff96fbp-01},
	{6, 8, 16, 1, 0x1.fd70a3d70a2cp-01},
	{6, 8, 16, 2, 0x1.a8f5c28f5c1f5p-01},
	{6, 8, 16, 3, 0x1.52240b78033d2p-01},
	{6, 8, 16, 4, 0x1.a6d5cfaacd90ep-01},
	{6, 8, 16, 5, 0x1.60f72b45281dfp-01},
	{6, 8, 16, 6, 0x1.669abf33870a8p-01},
	{6, 8, 16, 7, 0x1.03534526d09dap-01},
	{6, 8, 16, 8, 0x1.ffffffffffee3p-01},
	{6, 8, 16, 9, 0x1.951ba5e353ef7p-01},
	{6, 8, 16, 10, 0x1.b01ebc68d171fp-01},
	{10, 16, 32, 1, 0x1.7e147ae147a7p-01},
	{10, 16, 32, 2, 0x1.d73b645a1c9bep-01},
	{10, 16, 32, 3, 0x1.63bcd35a857dp-01},
	{10, 16, 32, 4, 0x1.ffffffffffee3p-01},
	{10, 16, 32, 5, 0x1.4525d4f19fb45p-01},
	{10, 16, 32, 6, 0x1.ffffffffffee3p-01},
	{10, 16, 32, 7, 0x1.43ab367a0f831p-01},
	{10, 16, 32, 8, 0x1.6a13d577f4fadp-01},
	{10, 16, 32, 9, 0x1.f999999999823p-01},
	{10, 16, 32, 10, 0x1.78faacd9e832ep-01},
	{10, 16, 32, 29, 0x1.9f76d5497302fp-01},
}

// registryPhis runs every registered heuristic on prob, checks each
// allocation is feasible, and returns phi_1 per heuristic.
func registryPhis(t *testing.T, label string, prob *ra.Problem) map[string]float64 {
	t.Helper()
	phis := map[string]float64{}
	for _, name := range ra.Names() {
		h, err := ra.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		al, err := ra.SolveContext(context.Background(), h, prob)
		if err != nil {
			t.Errorf("%s %s: %v", label, name, err)
			continue
		}
		if err := al.Validate(prob.Sys, prob.Batch); err != nil {
			t.Errorf("%s %s: infeasible allocation: %v", label, name, err)
			continue
		}
		phi, err := prob.Objective(al)
		if err != nil {
			t.Errorf("%s %s: %v", label, name, err)
			continue
		}
		phis[name] = phi
	}
	return phis
}

// TestHeuristicsFeasibleAndCompetitive checks every registered heuristic
// returns a feasible allocation, that none beats the exhaustive optimum
// on the paper instance, and that on each registryBest instance the
// best phi_1 over the registry reaches the recorded best of all fifteen
// heuristics.
func TestHeuristicsFeasibleAndCompetitive(t *testing.T) {
	f := Framework()
	prob := &ra.Problem{Sys: f.Sys, Batch: f.Batch, Deadline: f.Deadline}
	opt, err := prob.Objective(PaperRobustAllocation())
	if err != nil {
		t.Fatal(err)
	}
	for name, phi := range registryPhis(t, "paper", prob) {
		if phi > opt+1e-9 {
			t.Errorf("%s: phi1 %v exceeds exhaustive optimum %v", name, phi, opt)
		}
	}
	for _, c := range registryBest {
		label := fmt.Sprintf("%dx%d s=%d", c.apps, c.t1+c.t2, c.s)
		prob, err := SyntheticInstance(uint64(1000*c.s+c.apps), c.apps, c.t1, c.t2, 1.2)
		if err != nil {
			t.Fatal(err)
		}
		best, bestName := -1.0, ""
		for name, phi := range registryPhis(t, label, prob) {
			if phi > best || (phi == best && name < bestName) {
				best, bestName = phi, name
			}
		}
		if best < c.best {
			t.Errorf("%s: best registry phi1 %v (%s) below the fifteen-heuristic best %v", label, best, bestName, c.best)
		}
	}
}
