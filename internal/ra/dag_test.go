package ra

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"cdsf/internal/cache"
	"cdsf/internal/pmf"
	"cdsf/internal/robustness"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
)

// dagProblem builds a 4-application instance with enough deadline
// slack that composed chains keep a nontrivial phi_1.
func dagProblem() *Problem {
	sys := &sysmodel.System{Types: []sysmodel.ProcType{
		{Name: "T1", Count: 4, Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.5, Prob: 0.5}, {Value: 1, Prob: 0.5}})},
		{Name: "T2", Count: 6, Avail: pmf.Point(1)},
	}}
	app := func(t1, t2 float64) sysmodel.Application {
		return sysmodel.Application{
			Name:          "app",
			SerialIters:   50,
			ParallelIters: 950,
			ExecTime: []pmf.PMF{
				pmf.Discretize(stats.NewNormal(t1, t1/10), 40),
				pmf.Discretize(stats.NewNormal(t2, t2/10), 40),
			},
		}
	}
	return &Problem{
		Sys: sys,
		Batch: sysmodel.Batch{
			app(900, 1200), app(1500, 1000), app(700, 900), app(1100, 1300),
		},
		Deadline: 6000,
	}
}

var forkJoin = []sysmodel.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}}

func TestDAGHeuristicsRegistered(t *testing.T) {
	for _, name := range []string{"heft", "dag-greedy"} {
		h, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if !strings.EqualFold(h.Name(), name) {
			t.Errorf("ByName(%q).Name() = %q", name, h.Name())
		}
	}
}

// TestDAGHeuristicsAllocate runs both list schedulers on chain,
// fork-join, and edge-free topologies: allocations must be feasible,
// deterministic, and score a positive DAG phi_1.
func TestDAGHeuristicsAllocate(t *testing.T) {
	topologies := map[string][]sysmodel.Edge{
		"independent": nil,
		"chain":       {{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}},
		"fork-join":   forkJoin,
	}
	for _, name := range []string{"heft", "dag-greedy"} {
		h, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for topo, edges := range topologies {
			p := dagProblem()
			p.Edges = edges
			al, err := SolveContext(context.Background(), h, p)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, topo, err)
			}
			if err := al.Validate(p.Sys, p.Batch); err != nil {
				t.Fatalf("%s on %s: infeasible allocation %v: %v", name, topo, al, err)
			}
			phi, err := p.Objective(al)
			if err != nil {
				t.Fatal(err)
			}
			if phi <= 0 || phi > 1 {
				t.Errorf("%s on %s: phi_1 = %v outside (0, 1]", name, topo, phi)
			}
			again, err := SolveContext(context.Background(), h, p)
			if err != nil {
				t.Fatal(err)
			}
			if !al.Equal(again) {
				t.Errorf("%s on %s: repeated solve differs: %v vs %v", name, topo, al, again)
			}
		}
	}
}

// TestDAGHeuristicsExhaustProcessors pins the error paths when the
// system cannot give every application a processor.
func TestDAGHeuristicsExhaustProcessors(t *testing.T) {
	p := dagProblem()
	p.Sys = &sysmodel.System{Types: []sysmodel.ProcType{
		{Name: "T1", Count: 2, Avail: pmf.Point(1)},
	}}
	for i := range p.Batch {
		p.Batch[i].ExecTime = p.Batch[i].ExecTime[:1]
	}
	p.Edges = forkJoin
	for _, name := range []string{"heft", "dag-greedy"} {
		h, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SolveContext(context.Background(), h, p); err == nil ||
			!strings.Contains(err.Error(), "ran out of processors") {
			t.Errorf("%s on a starved system: err = %v, want ran-out-of-processors", name, err)
		}
	}
}

// TestObjectiveMatchesStageIDAG couples Stage I's search objective to
// the externally reported evaluation: for any allocation, the DAG
// Objective must equal robustness.EvaluateStageIDAG's Phi1 on the
// sparse backend.
func TestObjectiveMatchesStageIDAG(t *testing.T) {
	p := dagProblem()
	p.Edges = forkJoin
	h, err := ByName("heft")
	if err != nil {
		t.Fatal(err)
	}
	al, err := SolveContext(context.Background(), h, p)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := p.Objective(al)
	if err != nil {
		t.Fatal(err)
	}
	st, err := robustness.EvaluateStageIDAG(p.Sys, p.Batch, p.Edges, al, p.Deadline)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(phi-st.Phi1) > 1e-12 {
		t.Errorf("Objective %v != EvaluateStageIDAG Phi1 %v", phi, st.Phi1)
	}
	// Edge-free, the DAG evaluation must degenerate to the independent
	// product exactly.
	p2 := dagProblem()
	phi2, err := p2.Objective(al)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := robustness.EvaluateStageIDAG(p2.Sys, p2.Batch, nil, al, p2.Deadline)
	if err != nil {
		t.Fatal(err)
	}
	if phi2 != st2.Phi1 {
		t.Errorf("edge-free Objective %v != EvaluateStageI Phi1 %v", phi2, st2.Phi1)
	}
}

// TestDAGPhiBackendsAgree is the acceptance check that the sparse and
// grid backends agree on the DAG phi_1 within the quantization bounds
// of DESIGN.md §9 (step = deadline/1024; the composed deviation stays
// well under the coarse envelope asserted here).
func TestDAGPhiBackendsAgree(t *testing.T) {
	for topo, edges := range map[string][]sysmodel.Edge{
		"chain":     {{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}},
		"fork-join": forkJoin,
	} {
		sp := dagProblem()
		sp.Edges = edges
		h, err := ByName("heft")
		if err != nil {
			t.Fatal(err)
		}
		al, err := SolveContext(context.Background(), h, sp)
		if err != nil {
			t.Fatal(err)
		}
		phiSparse, err := sp.Objective(al)
		if err != nil {
			t.Fatal(err)
		}
		gr := dagProblem()
		gr.Edges = edges
		gr.Backend = pmf.BackendGrid
		if err := gr.PrecomputeContext(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		phiGrid, err := gr.Objective(al)
		if err != nil {
			t.Fatal(err)
		}
		if phiGrid < 0 || phiGrid > 1 {
			t.Fatalf("%s: grid phi_1 = %v outside [0, 1]", topo, phiGrid)
		}
		if diff := math.Abs(phiSparse - phiGrid); diff > 0.02 {
			t.Errorf("%s: sparse phi_1 %v vs grid %v (diff %v) exceeds the quantization envelope",
				topo, phiSparse, phiGrid, diff)
		}
	}
}

// TestEvaluateReadsEvalTier pins Evaluate's contract: with a cache on a
// DAG, the first Problem to evaluate an allocation composes it and
// publishes it, a later Problem on the other backend reads it back,
// and both carry the reference's bits with no PMFs; a different
// deadline misses, and an edge-free Problem or one without a cache
// takes the reference path untouched.
func TestEvaluateReadsEvalTier(t *testing.T) {
	base := dagProblem()
	base.Edges = forkJoin
	al := sysmodel.Allocation{{Type: 0, Procs: 2}, {Type: 1, Procs: 2}, {Type: 0, Procs: 2}, {Type: 1, Procs: 4}}
	ref, err := robustness.EvaluateStageIDAG(base.Sys, base.Batch, base.Edges, al, base.Deadline)
	if err != nil {
		t.Fatal(err)
	}
	same := func(st *robustness.StageIResult) bool {
		if math.Float64bits(st.Phi1) != math.Float64bits(ref.Phi1) || !st.Alloc.Equal(al) {
			return false
		}
		for i := range ref.PerApp {
			if math.Float64bits(st.PerApp[i]) != math.Float64bits(ref.PerApp[i]) ||
				math.Float64bits(st.ExpectedTimes[i]) != math.Float64bits(ref.ExpectedTimes[i]) {
				return false
			}
		}
		return true
	}
	c := cache.New(cache.Options{})
	for k, backend := range []pmf.Backend{pmf.BackendSparse, pmf.BackendGrid} {
		p := &Problem{Sys: base.Sys, Batch: base.Batch, Deadline: base.Deadline, Edges: base.Edges, Backend: backend, Cache: c}
		st, err := p.Evaluate(al)
		if err != nil {
			t.Fatal(err)
		}
		if !same(st) || st.Completion != nil {
			t.Errorf("%s: evaluation %+v differs from the reference or carries PMFs", backend, st)
		}
		if s := c.Stats(); s.EvalHits != int64(k) || s.EvalMisses != 1 {
			t.Errorf("%s: eval hits/misses %d/%d, want %d/1", backend, s.EvalHits, s.EvalMisses, k)
		}
	}
	later := &Problem{Sys: base.Sys, Batch: base.Batch, Deadline: base.Deadline + 1, Edges: base.Edges, Cache: c}
	if _, err := later.Evaluate(al); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.EvalMisses != 2 {
		t.Errorf("a different deadline hit the tier: %+v", s)
	}
	bad := sysmodel.Allocation{{Type: 0, Procs: 8}, {Type: 1, Procs: 2}, {Type: 0, Procs: 2}, {Type: 1, Procs: 4}}
	if _, err := later.Evaluate(bad); err == nil {
		t.Error("an infeasible allocation evaluated without error")
	}
	before := c.Stats()
	for _, p := range []*Problem{
		{Sys: base.Sys, Batch: base.Batch, Deadline: base.Deadline, Cache: c},
		{Sys: base.Sys, Batch: base.Batch, Deadline: base.Deadline, Edges: base.Edges},
	} {
		st, err := p.Evaluate(al)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := robustness.EvaluateStageIDAG(p.Sys, p.Batch, p.Edges, al, p.Deadline)
		if math.Float64bits(st.Phi1) != math.Float64bits(want.Phi1) || st.Completion == nil {
			t.Errorf("edges %v, cache %v: not the reference path", p.Edges, p.Cache != nil)
		}
	}
	if s := c.Stats(); s.EvalHits != before.EvalHits || s.EvalMisses != before.EvalMisses {
		t.Errorf("the reference path looked the tier up: %+v -> %+v", before, s)
	}

	// Concurrent jobs read and fill one tier: a fresh cache, so some
	// goroutines miss and publish while others hit.
	shared := cache.New(cache.Options{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &Problem{Sys: base.Sys, Batch: base.Batch, Deadline: base.Deadline, Edges: base.Edges, Cache: shared}
			st, err := p.Evaluate(al)
			if err != nil || !same(st) {
				t.Errorf("concurrent evaluation %+v, %v differs from the reference", st, err)
			}
		}()
	}
	wg.Wait()
}

// TestPrecomputedEvaluateKeepsTierKey checks that a precomputed
// Problem keys the evaluation tier as an un-precomputed one does, on
// either backend: its table holds the instance's sparse TableKey, and
// its evaluation hits the entry the other published.
func TestPrecomputedEvaluateKeepsTierKey(t *testing.T) {
	base := dagProblem()
	al := sysmodel.Allocation{{Type: 0, Procs: 2}, {Type: 1, Procs: 2}, {Type: 0, Procs: 2}, {Type: 1, Procs: 4}}
	want, err := cache.TableKey(base.Sys, base.Batch, pmf.BackendSparse, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(cache.Options{})
	first := &Problem{Sys: base.Sys, Batch: base.Batch, Deadline: base.Deadline, Edges: forkJoin, Cache: c}
	ref, err := first.Evaluate(al)
	if err != nil {
		t.Fatal(err)
	}
	for k, backend := range []pmf.Backend{pmf.BackendSparse, pmf.BackendGrid} {
		p := &Problem{Sys: base.Sys, Batch: base.Batch, Deadline: base.Deadline, Edges: forkJoin, Backend: backend, Cache: c}
		if err := p.PrecomputeContext(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		if p.table.evalKey == nil || *p.table.evalKey != want {
			t.Errorf("%s: table keeps eval key %v, want the sparse TableKey %v", backend, p.table.evalKey, want)
		}
		st, err := p.Evaluate(al)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(st.Phi1) != math.Float64bits(ref.Phi1) {
			t.Errorf("%s: phi1 %v, want %v", backend, st.Phi1, ref.Phi1)
		}
		if s := c.Stats(); s.EvalHits != int64(k+1) || s.EvalMisses != 1 {
			t.Errorf("%s: eval hits/misses %d/%d, want %d/1", backend, s.EvalHits, s.EvalMisses, k+1)
		}
	}
}
