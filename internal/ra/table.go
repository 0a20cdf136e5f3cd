package ra

import (
	"context"
	"math/bits"
	"time"

	"cdsf/internal/cache"
	"cdsf/internal/pmf"
	"cdsf/internal/pool"
	"cdsf/internal/sysmodel"
)

// This file implements the Stage-I evaluation table: the dense,
// immutable (application x type x log2(count)) array of
// (Pr(T_i <= Delta), E[T_i]) cells that every search heuristic reads
// instead of recomputing completion PMFs. Building the table up front
// turns the inner loops of the searches into lock-free O(1) array reads
// and is what makes a Problem safe to share across goroutines.

// evalTable is the precomputed evaluation table. Cells are indexed by
// (app*types + type)*logs + log2(procs); slots whose power-of-2 count
// exceeds the type's capacity are never read. The table is immutable
// after construction.
type evalTable struct {
	types int
	logs  int // power-of-2 count slots per (app, type): log2(maxCount)+1
	cells []memoVal
	// dists holds each cell's full completion-time distribution when the
	// Problem carries precedence edges (indexed like cells; nil slices
	// and nil entries fall back to computeDist). DAG composition needs
	// whole distributions, not just the (prob, expected) pair, so the
	// table retains what it computed instead of discarding it.
	dists []pmf.Dist
	// evalKey is the instance's sparse cache.TableKey, under which
	// Evaluate keys the cache's evaluation tier; nil unless the Problem
	// has edges and a cache. PrecomputeContext hashes it once per
	// Problem.
	evalKey *cache.Key
}

// cell returns the cell of application i under a power-of-2
// assignment within capacity: the unchecked, uncounted read of
// evalCell's table path, for the exhaustive scan's prefix folds.
func (t *evalTable) cell(i int, as sysmodel.Assignment) memoVal {
	return t.cells[(i*t.types+as.Type)*t.logs+bits.TrailingZeros(uint(as.Procs))]
}

// log2of returns (log2(n), true) when n is a positive power of two.
func log2of(n int) (int, bool) {
	if n < 1 || n&(n-1) != 0 {
		return 0, false
	}
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k, true
}

// PrecomputeContext eagerly builds the evaluation table with a bounded
// worker pool (workers <= 0 means runtime.NumCPU()). It validates the
// instance first and is idempotent: the first successful call builds
// the table, later calls return immediately. Cell values are
// independent of the worker count, so precomputed Problems behave
// identically however many workers built them. When ctx is cancelled
// the build's worker pool drains at the next cell boundary, the Problem
// is left un-precomputed (no partial table is ever published), and the
// returned error wraps ctx.Err().
//
// PrecomputeContext itself must not be called concurrently with other
// methods of an un-precomputed Problem; every AllocateContext
// implementation in this package calls it before fanning out, so plain
// sequential construction followed by concurrent use is always safe.
func (p *Problem) PrecomputeContext(ctx context.Context, workers int) error {
	if p.table != nil {
		return nil
	}
	if err := p.Validate(); err != nil {
		return err
	}
	defer p.Obs.Tracer.Begin("stage1", "precompute", "stage1").End()
	reg := p.Obs.Metrics
	var t0 time.Time
	if reg != nil {
		t0 = time.Now()
		p.instr = instr{
			evals:  reg.Counter("ra.evaluations"),
			hits:   reg.Counter("ra.table_hits"),
			misses: reg.Counter("ra.table_misses"),
		}
	}
	maxCount := 0
	for _, t := range p.Sys.Types {
		if t.Count > maxCount {
			maxCount = t.Count
		}
	}
	logs := 1
	for 1<<logs <= maxCount {
		logs++
	}
	t := &evalTable{
		types: len(p.Sys.Types),
		logs:  logs,
		cells: make([]memoVal, len(p.Batch)*len(p.Sys.Types)*logs),
	}
	// One job per feasible cell: count 1<<k must not exceed the type's
	// capacity.
	type job struct{ i, j, k int }
	jobs := make([]job, 0, len(t.cells))
	for i := range p.Batch {
		for j, pt := range p.Sys.Types {
			for k := 0; 1<<k <= pt.Count; k++ {
				jobs = append(jobs, job{i, j, k})
			}
		}
	}

	// Warm-table path: the completion-time distribution behind each
	// cell does not depend on the deadline, the heuristic, or the
	// runtime availability cases, so Problems differing only in those
	// share one cached distribution set and each cell collapses to a
	// PrLE read plus a Mean (delta-solve). The cache holds cells packed
	// (sparse PMFs without their CDFs, grids as their occupied bins),
	// whose queries answer with the bits of the distributions the
	// direct path computes, so the table is bit-identical whether the
	// cache is absent, cold, or warm.
	var warmKey cache.Key
	var warm *cache.Table
	var dists, warmDists []pmf.Dist
	useCache := p.Cache != nil
	if useCache {
		step := 0.0
		if p.Backend.IsGrid() {
			step = p.gridStep()
		}
		k, err := cache.TableKey(p.Sys, p.Batch, p.Backend, step)
		if err != nil {
			useCache = false // unhashable instance: fall back to direct computation
		} else {
			warmKey = k
			if w, ok := p.Cache.GetTable(warmKey); ok &&
				w.Types == t.types && w.Logs == t.logs && len(w.Cells) == len(t.cells) {
				warm = w
				if len(p.Edges) > 0 {
					warmDists = make([]pmf.Dist, len(t.cells))
				}
			}
		}
		if warm == nil && useCache {
			dists = make([]pmf.Dist, len(t.cells))
		}
	}
	// A DAG problem composes the cells' full distributions, so retain
	// them even without a cache attached.
	if dists == nil && warm == nil && len(p.Edges) > 0 {
		dists = make([]pmf.Dist, len(t.cells))
	}

	if err := pool.ForEach(ctx, workers, len(jobs), func(_, n int) {
		jb := jobs[n]
		idx := (jb.i*t.types+jb.j)*t.logs + jb.k
		if warm != nil {
			if d := warm.Cells[idx]; d != nil {
				if warmDists != nil {
					// DAG composition needs whole PMFs: rebuild the CDF.
					if pp, ok := d.(*pmf.PackedPMF); ok {
						d = pp.Unpack()
					}
					warmDists[idx] = d
				}
				t.cells[idx] = cellFromDist(d, p.Deadline)
				return
			}
		}
		as := sysmodel.Assignment{Type: jb.j, Procs: 1 << jb.k}
		if dists != nil {
			d := p.computeDist(jb.i, as)
			dists[idx] = d
			t.cells[idx] = cellFromDist(d, p.Deadline)
			return
		}
		t.cells[idx] = p.computeCell(jb.i, as)
	}); err != nil {
		return searchErr("precompute", err)
	}
	switch {
	case warm != nil:
		p.warmHits = int64(len(jobs))
		t.dists = warmDists
	case dists != nil:
		if useCache {
			p.warmMisses = int64(len(jobs))
			cells := make([]pmf.Dist, len(dists))
			for i, d := range dists {
				cells[i] = d
				if pm, ok := d.(pmf.PMF); ok {
					cells[i] = pm.Pack()
				}
			}
			p.Cache.PutTable(warmKey, &cache.Table{Types: t.types, Logs: t.logs, Cells: cells})
		}
		if len(p.Edges) > 0 {
			t.dists = dists
		}
	}
	if useCache && len(p.Edges) > 0 {
		// A sparse Problem's warm key is the sparse TableKey itself.
		k := warmKey
		var err error
		if p.Backend.IsGrid() {
			k, err = cache.TableKey(p.Sys, p.Batch, pmf.BackendSparse, 0)
		}
		if err == nil {
			t.evalKey = &k
		}
	}
	p.table = t
	if reg != nil {
		reg.Counter("ra.precompute_cells").Add(int64(len(jobs)))
		reg.Timer("ra.precompute_wall").Observe(time.Since(t0))
	}
	return nil
}

// gridBinsPerDeadline fixes the lattice resolution of the grid
// backend: the step is Deadline/gridBinsPerDeadline, so a deadline
// probability read off a grid cell can differ from the sparse
// reference only by the mass within half a step (~0.05% of the
// deadline) of the deadline itself.
const gridBinsPerDeadline = 1024

// gridStep returns the lattice step used by grid-backend cells.
func (p *Problem) gridStep() float64 { return p.Deadline / gridBinsPerDeadline }

// computeCell evaluates one (application, assignment) cell from
// scratch, on whichever backend the Problem selects. The grid path
// quantizes the parallel-time PMF once, divides by the sparse
// availability with the dense kernel, reads the two cell values, and
// returns its buffers to the pool — steady-state it allocates nothing.
func (p *Problem) computeCell(i int, as sysmodel.Assignment) memoVal {
	if p.Backend.IsGrid() {
		g := p.Batch[i].CompletionGrid(as.Type, as.Procs, p.Sys.Types[as.Type].Avail, p.gridStep())
		mv := memoVal{prob: g.PrLE(p.Deadline), expected: g.Mean()}
		g.Release()
		return mv
	}
	c := p.Batch[i].CompletionPMF(as.Type, as.Procs, p.Sys.Types[as.Type].Avail)
	return memoVal{prob: c.PrLE(p.Deadline), expected: c.Mean()}
}

// computeDist evaluates one cell's full completion-time distribution —
// the cacheable, deadline-invariant object behind computeCell. The
// grid path packs the grid off the pooled buffers (only its occupied
// bins are kept), so the returned distribution is small and may be
// retained indefinitely; it answers PrLE and Mean with the dense
// grid's bits.
func (p *Problem) computeDist(i int, as sysmodel.Assignment) pmf.Dist {
	if p.Backend.IsGrid() {
		g := p.Batch[i].CompletionGrid(as.Type, as.Procs, p.Sys.Types[as.Type].Avail, p.gridStep())
		c := g.Pack()
		g.Release()
		return c
	}
	return p.Batch[i].CompletionPMF(as.Type, as.Procs, p.Sys.Types[as.Type].Avail)
}

// cellFromDist derives a table cell from a completion-time
// distribution: the delta-solve step. A packed sparse cell sums its
// CDF inline and every other distribution reads a cached one; both
// give the bits of the freshly computed distribution, which is what
// pins cache-on/off bit-identity.
func cellFromDist(d pmf.Dist, deadline float64) memoVal {
	return memoVal{prob: d.PrLE(deadline), expected: d.Mean()}
}
