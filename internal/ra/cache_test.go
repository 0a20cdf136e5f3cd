package ra

import (
	"context"
	"fmt"
	"math"
	"testing"

	"cdsf/internal/cache"
	"cdsf/internal/pmf"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
)

// cloneProblem returns a fresh un-precomputed Problem over the same
// model objects, so each solve builds (or warm-loads) its own table.
func cloneProblem(p *Problem) *Problem {
	return &Problem{Sys: p.Sys, Batch: p.Batch, Deadline: p.Deadline, Backend: p.Backend, Cache: p.Cache}
}

// solveCells precomputes the problem and returns its raw table cells.
func solveCells(t *testing.T, p *Problem) []memoVal {
	t.Helper()
	if err := p.PrecomputeContext(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	return p.table.cells
}

// TestCacheBitIdenticalCells pins the central cache contract on both
// backends: the evaluation table built with the cache absent, cold,
// and warm is bit-identical cell for cell (exact float equality, not
// tolerance), and a heuristic solve returns the identical allocation.
func TestCacheBitIdenticalCells(t *testing.T) {
	for _, backend := range []pmf.Backend{pmf.BackendSparse, pmf.BackendGrid} {
		t.Run(backend.String(), func(t *testing.T) {
			base := randomProblem(7, 3)
			base.Backend = backend
			plain := solveCells(t, cloneProblem(base))

			c := cache.New(cache.Options{})
			withCache := cloneProblem(base)
			withCache.Cache = c
			cold := solveCells(t, withCache)
			if h, m := withCache.CacheCounts(); h != 0 || m == 0 {
				t.Fatalf("cold build counts = (%d, %d), want (0, >0)", h, m)
			}

			warmProb := cloneProblem(base)
			warmProb.Cache = c
			warm := solveCells(t, warmProb)
			if h, m := warmProb.CacheCounts(); h == 0 || m != 0 {
				t.Fatalf("warm build counts = (%d, %d), want (>0, 0)", h, m)
			}

			for i := range plain {
				if plain[i] != cold[i] {
					t.Fatalf("cell %d: cacheless %+v != cold %+v", i, plain[i], cold[i])
				}
				if plain[i] != warm[i] {
					t.Fatalf("cell %d: cacheless %+v != warm %+v", i, plain[i], warm[i])
				}
			}

			// The allocations a heuristic derives from the tables agree
			// exactly too.
			alPlain, err := Greedy{}.AllocateContext(context.Background(), cloneProblem(base))
			if err != nil {
				t.Fatal(err)
			}
			cachedBase := cloneProblem(base)
			cachedBase.Cache = c
			alWarm, err := Greedy{}.AllocateContext(context.Background(), cachedBase)
			if err != nil {
				t.Fatal(err)
			}
			if alPlain.String() != alWarm.String() {
				t.Errorf("allocations diverge: %s vs %s", alPlain, alWarm)
			}
		})
	}
}

// dagServiceProblem builds a DAG instance of the cdsfd DAG service
// shape: eight applications over three processor types (4, 8 and 16
// processors) at 50 pulses, in three layers [0,2), [2,5), [5,8) with
// every later-layer application fed by one to two predecessors.
func dagServiceProblem() *Problem {
	avail := func(vs ...float64) pmf.PMF {
		ps := make([]pmf.Pulse, 0, len(vs)/2)
		for i := 0; i < len(vs); i += 2 {
			ps = append(ps, pmf.Pulse{Value: vs[i], Prob: vs[i+1]})
		}
		return pmf.MustNew(ps)
	}
	sys := &sysmodel.System{Types: []sysmodel.ProcType{
		{Name: "T1", Count: 4, Avail: avail(0.75, 0.5, 1, 0.5)},
		{Name: "T2", Count: 8, Avail: avail(0.25, 0.25, 0.5, 0.25, 1, 0.5)},
		{Name: "T3", Count: 16, Avail: avail(0.5, 0.5, 1, 0.5)},
	}}
	b := make(sysmodel.Batch, 8)
	for i := range b {
		fi := float64(i)
		exec := make([]pmf.PMF, 3)
		for j, mu := range []float64{1500 + 300*fi, 3000 + 500*fi, 2000 + 400*fi} {
			exec[j] = pmf.Discretize(stats.NewNormal(mu, mu/10), 50)
		}
		b[i] = sysmodel.Application{Name: fmt.Sprintf("App %d", i+1),
			SerialIters: 200 + 50*i, ParallelIters: 1024 + 512*i, ExecTime: exec}
	}
	return &Problem{Sys: sys, Batch: b, Deadline: 7000, Backend: pmf.BackendGrid,
		Edges: []sysmodel.Edge{{From: 0, To: 2}, {From: 1, To: 2}, {From: 0, To: 3}, {From: 1, To: 4},
			{From: 2, To: 5}, {From: 3, To: 5}, {From: 3, To: 6}, {From: 2, To: 7}, {From: 4, To: 7}}}
}

// TestCacheBitIdenticalDAGGrid extends the cache contract to the path
// from warm-tier grid cells into DAG composition: on the grid backend
// the DAG objective is bit-identical with the cache absent, cold and
// warm, and equals sysmodel.ComposeDAGGrid over freshly computed
// CompletionGrids. It also bounds what the instance leaves in the warm
// tier: packed cells count at most a quarter of the dense grids' bytes.
func TestCacheBitIdenticalDAGGrid(t *testing.T) {
	base := dagServiceProblem()
	fresh := func(c *cache.Cache) *Problem {
		p := cloneProblem(base)
		p.Edges, p.Cache = base.Edges, c
		if err := p.PrecomputeContext(context.Background(), 2); err != nil {
			t.Fatal(err)
		}
		return p
	}
	c := cache.New(cache.Options{})
	plain, cold, warm := fresh(nil), fresh(c), fresh(c)
	if h, m := cold.CacheCounts(); h != 0 || m == 0 {
		t.Fatalf("cold build counts = (%d, %d), want (0, >0)", h, m)
	}
	if h, m := warm.CacheCounts(); h == 0 || m != 0 {
		t.Fatalf("warm build counts = (%d, %d), want (>0, 0)", h, m)
	}

	as := func(ts, ps []int) sysmodel.Allocation {
		al := make(sysmodel.Allocation, len(ts))
		for i := range ts {
			al[i] = sysmodel.Assignment{Type: ts[i], Procs: ps[i]}
		}
		return al
	}
	allocs := []sysmodel.Allocation{
		as([]int{0, 0, 1, 1, 2, 2, 2, 2}, []int{2, 2, 4, 4, 4, 4, 4, 4}),
		as([]int{2, 2, 2, 2, 2, 2, 2, 2}, []int{2, 2, 2, 2, 2, 2, 2, 2}),
		as([]int{1, 0, 2, 1, 2, 0, 2, 1}, []int{4, 1, 8, 2, 4, 2, 4, 2}),
		// Non-power-of-2 counts miss the table and are computed directly.
		as([]int{0, 0, 1, 1, 2, 2, 2, 2}, []int{3, 1, 5, 3, 6, 3, 3, 4}),
	}
	step := base.gridStep()
	for n, al := range allocs {
		want := 0.0
		for k, p := range []*Problem{plain, cold, warm} {
			got, err := p.Objective(al)
			if err != nil {
				t.Fatal(err)
			}
			if k == 0 {
				want = got
			} else if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("allocation %d: objective %x with cache state %d, cacheless %x", n, got, k, want)
			}
		}
		grids := make([]*pmf.Grid, len(base.Batch))
		for i, a := range al {
			grids[i] = base.Batch[i].CompletionGrid(a.Type, a.Procs, base.Sys.Types[a.Type].Avail, step)
		}
		comp, err := sysmodel.ComposeDAGGrid(grids, base.Edges)
		if err != nil {
			t.Fatal(err)
		}
		phi := 1.0
		for _, s := range sysmodel.Sinks(base.Edges, len(base.Batch)) {
			phi *= comp[s].PrLE(base.Deadline)
		}
		sysmodel.ReleaseGrids(comp)
		if math.Float64bits(phi) != math.Float64bits(want) {
			t.Fatalf("allocation %d: objective %x, direct composition %x", n, want, phi)
		}
		if want <= 0 || want >= 1 {
			t.Errorf("allocation %d: objective %v outside (0, 1) pins nothing", n, want)
		}
	}

	dense := int64(0)
	for _, d := range cold.table.dists {
		if d != nil {
			dense += int64(16*d.Len()) + 64
		}
	}
	got := c.Stats().Bytes
	t.Logf("warm tier: %d bytes packed, %d bytes as dense grids", got, dense)
	if got*4 > dense {
		t.Errorf("warm tier holds %d bytes for the instance, more than a quarter of the dense grids' %d", got, dense)
	}
}

// TestDeltaSolveReusesWarmTable pins the delta-solve path: a problem
// differing only in deadline re-derives its cells from the warm
// distributions (warm hit) and the derived cells are bit-identical to
// a from-scratch build at the new deadline.
func TestDeltaSolveReusesWarmTable(t *testing.T) {
	base := smallProblem()
	c := cache.New(cache.Options{})

	first := cloneProblem(base)
	first.Cache = c
	solveCells(t, first)
	if h, m := first.CacheCounts(); h != 0 || m == 0 {
		t.Fatalf("first build counts = (%d, %d)", h, m)
	}

	// Same instance, different deadline: warm hit under the sparse
	// backend (distributions are deadline-invariant).
	delta := cloneProblem(base)
	delta.Deadline = base.Deadline * 1.5
	delta.Cache = c
	got := solveCells(t, delta)
	if h, m := delta.CacheCounts(); h == 0 || m != 0 {
		t.Fatalf("delta build counts = (%d, %d), want (>0, 0)", h, m)
	}

	fresh := cloneProblem(base)
	fresh.Deadline = base.Deadline * 1.5
	want := solveCells(t, fresh)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("cell %d: delta-solved %+v != fresh %+v", i, got[i], want[i])
		}
	}

	// A changed instance must NOT hit the warm entry.
	other := randomProblem(3, 2)
	other.Cache = c
	solveCells(t, other)
	if h, _ := other.CacheCounts(); h != 0 {
		t.Error("different instance warm-hit the cached table")
	}
}

// TestGridDeltaDeadlineIsWarmMiss pins the grid caveat: the lattice
// step is deadline/1024, so a deadline change re-quantizes and must
// not reuse the cached grid cells.
func TestGridDeltaDeadlineIsWarmMiss(t *testing.T) {
	base := smallProblem()
	base.Backend = pmf.BackendGrid
	c := cache.New(cache.Options{})

	first := cloneProblem(base)
	first.Cache = c
	solveCells(t, first)

	delta := cloneProblem(base)
	delta.Deadline = base.Deadline * 2
	delta.Cache = c
	got := solveCells(t, delta)
	if h, m := delta.CacheCounts(); h != 0 || m == 0 {
		t.Fatalf("grid delta counts = (%d, %d), want (0, >0)", h, m)
	}
	// And the rebuilt cells match a cacheless build exactly.
	fresh := cloneProblem(base)
	fresh.Deadline = base.Deadline * 2
	want := solveCells(t, fresh)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("cell %d: %+v != %+v", i, got[i], want[i])
		}
	}
	// Same deadline again: now it hits.
	again := cloneProblem(base)
	again.Deadline = base.Deadline * 2
	again.Cache = c
	solveCells(t, again)
	if h, m := again.CacheCounts(); h == 0 || m != 0 {
		t.Fatalf("repeat grid counts = (%d, %d), want (>0, 0)", h, m)
	}
}

// TestWarmTableSharedAcrossGoroutines precomputes many Problems
// against one cache concurrently (meaningful under -race: cached
// distributions are shared, so any mutation of them would be flagged).
func TestWarmTableSharedAcrossGoroutines(t *testing.T) {
	base := smallProblem()
	c := cache.New(cache.Options{})
	seed := cloneProblem(base)
	seed.Cache = c
	want := solveCells(t, seed)

	const n = 8
	cells := make([][]memoVal, n)
	errs := make([]error, n)
	done := make(chan int, n)
	for g := 0; g < n; g++ {
		go func(g int) {
			p := cloneProblem(base)
			p.Cache = c
			errs[g] = p.PrecomputeContext(context.Background(), 2)
			if errs[g] == nil {
				cells[g] = p.table.cells
			}
			done <- g
		}(g)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for g := 0; g < n; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i := range want {
			if cells[g][i] != want[i] {
				t.Fatalf("goroutine %d cell %d: %+v != %+v", g, i, cells[g][i], want[i])
			}
		}
	}
}
