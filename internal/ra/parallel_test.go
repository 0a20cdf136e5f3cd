package ra

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"cdsf/internal/sysmodel"
)

// workerCounts are the pool sizes every determinism test sweeps: the
// sequential case, an odd count that does not divide typical job counts,
// and whatever the host has.
func workerCounts() []int {
	ws := []int{1, 3, 7}
	if n := runtime.NumCPU(); n > 1 {
		ws = append(ws, n)
	}
	return ws
}

// TestPrecomputeTableMatchesDirectCompute checks every cell of the eager
// evaluation table against a from-scratch computation, for every worker
// count.
func TestPrecomputeTableMatchesDirectCompute(t *testing.T) {
	for _, w := range workerCounts() {
		p := randomProblem(11, 3)
		if err := p.PrecomputeContext(context.Background(), w); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		tab := p.table
		for i := range p.Batch {
			for j := range p.Sys.Types {
				for k := 0; 1<<k <= p.Sys.Types[j].Count; k++ {
					as := sysmodel.Assignment{Type: j, Procs: 1 << k}
					got := tab.cells[(i*tab.types+j)*tab.logs+k]
					want := p.computeCell(i, as)
					if got != want {
						t.Fatalf("workers=%d cell (%d,%d,%d): got %+v want %+v", w, i, j, k, got, want)
					}
				}
			}
		}
	}
}

// TestPrecomputeIdempotent checks that a second Precompute (with a
// different worker count) keeps the existing table.
func TestPrecomputeIdempotent(t *testing.T) {
	p := smallProblem()
	if err := p.PrecomputeContext(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	tab := p.table
	if err := p.PrecomputeContext(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if p.table != tab {
		t.Fatal("second Precompute replaced the table")
	}
}

// TestExhaustiveDeterministicAcrossWorkers checks the hard guarantee the
// package documents: the parallel exhaustive search returns the same
// allocation with bitwise-identical phi_1 for every worker count.
func TestExhaustiveDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4} {
		base := randomProblem(seed, 3)
		ref, err := (&Exhaustive{Workers: 1}).AllocateContext(context.Background(), base)
		if err != nil {
			t.Fatal(err)
		}
		refPhi, err := base.Objective(ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts() {
			p := randomProblem(seed, 3) // fresh problem: cold table under w workers
			al, err := (&Exhaustive{Workers: w}).AllocateContext(context.Background(), p)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if !al.Equal(ref) {
				t.Fatalf("seed %d workers=%d: allocation %v differs from sequential %v", seed, w, al, ref)
			}
			phi, err := p.Objective(al)
			if err != nil {
				t.Fatal(err)
			}
			if phi != refPhi {
				t.Fatalf("seed %d workers=%d: phi %v differs from sequential %v", seed, w, phi, refPhi)
			}
		}
	}
}

// TestMetaheuristicsDeterministicAcrossWorkers checks that the seeded
// tabu search returns identical allocations for every worker count of
// the evaluation-table build.
func TestMetaheuristicsDeterministicAcrossWorkers(t *testing.T) {
	mk := func(w int) []Heuristic {
		return []Heuristic{
			&TabuSearch{Seed: 5, Workers: w},
		}
	}
	p := randomProblem(23, 3)
	refs := make([]sysmodel.Allocation, len(mk(1)))
	for i, h := range mk(1) {
		al, err := h.AllocateContext(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
		refs[i] = al
	}
	for _, w := range workerCounts()[1:] {
		for i, h := range mk(w) {
			al, err := h.AllocateContext(context.Background(), p)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", h.Name(), w, err)
			}
			if !al.Equal(refs[i]) {
				t.Fatalf("%s workers=%d: allocation %v differs from sequential %v", h.Name(), w, al, refs[i])
			}
		}
	}
}

// TestConcurrentAllocateSharedProblem exercises the documented
// concurrency contract under the race detector: one precomputed Problem
// shared by many goroutines running different heuristics at once.
func TestConcurrentAllocateSharedProblem(t *testing.T) {
	p := randomProblem(47, 3)
	if err := p.PrecomputeContext(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	hs := []Heuristic{
		&Exhaustive{Workers: 2},
		Greedy{},
		&TabuSearch{Seed: 9, Workers: 2},
	}
	var wg sync.WaitGroup
	errs := make([]error, len(hs)*3)
	for rep := 0; rep < 3; rep++ {
		for i, h := range hs {
			wg.Add(1)
			go func(slot int, h Heuristic) {
				defer wg.Done()
				al, err := h.AllocateContext(context.Background(), p)
				if err == nil {
					_, err = p.Objective(al)
				}
				errs[slot] = err
			}(rep*len(hs)+i, h)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestEvalCellFallsBackOffTable checks that assignments outside the
// table (non-power-of-2 counts never enumerated by the searches, but
// legal in user-supplied allocations) are evaluated directly and agree
// with the lazy path.
func TestEvalCellFallsBackOffTable(t *testing.T) {
	p := smallProblem()
	al := sysmodel.Allocation{{Type: 1, Procs: 3}, {Type: 1, Procs: 1}}
	lazy, err := p.Objective(al) // triggers lazy Precompute(1)
	if err != nil {
		t.Fatal(err)
	}
	q := smallProblem()
	if err := q.PrecomputeContext(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	eager, err := q.Objective(al)
	if err != nil {
		t.Fatal(err)
	}
	if lazy != eager || math.IsNaN(lazy) {
		t.Fatalf("off-table objective differs: lazy %v eager %v", lazy, eager)
	}
}
