package ra_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"cdsf/internal/experiments"
	"cdsf/internal/metrics"
	"cdsf/internal/ra"
)

// tournamentInstance is the Stage-I tournament's instance
// SyntheticInstance(1000*s+apps, apps, t1, t2, slack) (EXPERIMENTS.md).
func tournamentInstance(t *testing.T, apps, t1, t2, s int, slack float64) *ra.Problem {
	t.Helper()
	p, err := experiments.SyntheticInstance(uint64(1000*s+apps), apps, t1, t2, slack)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestExhaustiveMatchesUnprunedScan checks that the branch-and-bound
// returns the allocation, with the same phi_1 bits, that scoring every
// feasible allocation returns: on the paper instance and on the
// tournament's 100 instances at 3x12 and 6x24, at one and three
// workers.
func TestExhaustiveMatchesUnprunedScan(t *testing.T) {
	f := experiments.Framework()
	type inst struct {
		label string
		p     *ra.Problem
	}
	insts := []inst{{"paper", &ra.Problem{Sys: f.Sys, Batch: f.Batch, Deadline: f.Deadline}}}
	for _, sz := range [][3]int{{3, 4, 8}, {6, 8, 16}} {
		for _, sl := range []struct {
			slack float64
			n     int
		}{{1.2, 30}, {1.5, 20}} {
			for s := 1; s <= sl.n; s++ {
				insts = append(insts, inst{
					fmt.Sprintf("%dx%d slack %.1f s=%d", sz[0], sz[1]+sz[2], sl.slack, s),
					tournamentInstance(t, sz[0], sz[1], sz[2], s, sl.slack),
				})
			}
		}
	}
	for _, in := range insts {
		want, err := ra.UnprunedExhaustive(context.Background(), in.p, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantPhi, _ := in.p.Objective(want)
		for _, w := range []int{1, 3} {
			got, err := (&ra.Exhaustive{Workers: w}).AllocateContext(context.Background(), in.p)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", in.label, w, err)
			}
			gotPhi, _ := in.p.Objective(got)
			if !got.Equal(want) || math.Float64bits(gotPhi) != math.Float64bits(wantPhi) {
				t.Errorf("%s workers=%d: %v phi1 %x, full scan %v phi1 %x", in.label, w, got, gotPhi, want, wantPhi)
			}
		}
	}
}

// TestExhaustiveExactAt10x48 runs exhaustive on all 60 tournament
// instances at 10x48 (647,993,773 allocations each): phi_1 must equal
// the bound table's optimum within 1e-12 and never fall below tabu's.
func TestExhaustiveExactAt10x48(t *testing.T) {
	for _, sl := range []struct {
		slack float64
		n     int
	}{{1.2, 40}, {1.5, 20}} {
		for s := 1; s <= sl.n; s++ {
			label := fmt.Sprintf("slack %.1f s=%d", sl.slack, s)
			p := tournamentInstance(t, 10, 16, 32, s, sl.slack)
			root, ok := ra.BoundRoot(p)
			if !ok {
				t.Fatalf("%s: no bound table", label)
			}
			al, err := ra.SolveContext(context.Background(), &ra.Exhaustive{Workers: 1}, p)
			if err != nil {
				t.Fatal(err)
			}
			phi, _ := p.Objective(al)
			if math.Abs(phi-root) > 1e-12 {
				t.Errorf("%s: phi1 %v, bound optimum %v", label, phi, root)
			}
			tabu, _ := ra.ByName("tabu")
			tal, err := ra.SolveContext(context.Background(), tabu, p)
			if err != nil {
				t.Fatal(err)
			}
			if tphi, _ := p.Objective(tal); phi < tphi-1e-12 {
				t.Errorf("%s: phi1 %v below tabu's %v", label, phi, tphi)
			}
		}
	}
}

// deadlineAfter reports an expired deadline from its n-th Err call on;
// a one-worker search polls Err once before its first partition, so
// n = 2 expires the deadline inside the first partition's scan.
type deadlineAfter struct {
	context.Context
	calls, n int
}

func (c *deadlineAfter) Err() error {
	if c.calls++; c.calls >= c.n {
		return context.DeadlineExceeded
	}
	return nil
}

// A search whose deadline expires, before it starts or in the middle of
// a partition's scan, must return an error wrapping
// context.DeadlineExceeded and no allocation.
func TestExhaustiveDeadlineMidSearch(t *testing.T) {
	p := tournamentInstance(t, 10, 16, 32, 13, 1.5)
	p.Obs.Metrics = metrics.NewRegistry()
	scanned := p.Obs.Metrics.Counter("ra.exhaustive_scanned")
	if err := p.PrecomputeContext(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := (&ra.Exhaustive{Workers: 1}).AllocateContext(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	full := scanned.Value()
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{
		{"expired", expired},
		{"mid-scan", &deadlineAfter{Context: context.Background(), n: 2}},
	} {
		before := scanned.Value()
		al, err := (&ra.Exhaustive{Workers: 1}).AllocateContext(tc.ctx, p)
		if !errors.Is(err, context.DeadlineExceeded) || al != nil {
			t.Fatalf("%s: allocation %v, err %v; want nil and DeadlineExceeded", tc.name, al, err)
		}
		n := scanned.Value() - before
		if tc.name == "mid-scan" && (n == 0 || n >= full) {
			t.Errorf("mid-scan: scored %d of the full search's %d allocations; want the scan cut short", n, full)
		}
	}
}
