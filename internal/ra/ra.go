// Package ra implements the Stage-I resource allocation (initial
// mapping) heuristics.
//
// Stage I assigns every application of a batch to a power-of-2 number of
// processors of a single type, maximizing the robustness objective
// phi_1 = Pr(Psi <= Delta): the joint probability, computed from the
// execution-time and availability PMFs, that all applications finish by
// the common deadline.
//
// The paper uses two policies at its small scale — a naive equal-share
// load balancer and an exhaustive search for the optimum — and calls for
// scalable robust heuristics as future work. This package provides both
// paper policies, with the exhaustive search made a branch-and-bound
// that stays exact and fast on independent batches of the scale
// study's sizes, plus cheap constructive heuristics (greedy, a min-min
// adaptation of Ibarra & Kim, two-phase greedy in the spirit of
// Shestak et al.), the DAG list schedulers heft and dag-greedy, and a
// tabu search for DAG objectives, all optimizing the same stochastic
// objective so they can be ablated against the exhaustive optimum. The
// tournaments recorded in EXPERIMENTS.md ran these eight and seven
// more; none of the seven ever beat the best of these eight, so only
// these are registered.
//
// The package is a parallel search engine: Problem.PrecomputeContext
// builds an immutable evaluation table with a bounded worker pool,
// after which every heuristic's inner loop is a lock-free array read and
// the exhaustive search fans out across workers. All parallel searches
// reduce deterministically — for a fixed seed they return bit-identical
// allocations and phi_1 values for any worker count, including 1.
package ra

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"cdsf/internal/cache"
	"cdsf/internal/metrics"
	"cdsf/internal/pmf"
	"cdsf/internal/sysmodel"
	"cdsf/internal/tracing"
)

// Problem is one Stage-I instance.
//
// Concurrency contract: a Problem is logically immutable once its
// evaluation table exists. Call PrecomputeContext (directly, or
// implicitly via any heuristic's AllocateContext or the first Objective
// evaluation) from a single goroutine; from then on Sys, Batch,
// Deadline, and the table must not be mutated, and the Problem may be
// shared freely — any number of goroutines may call Objective,
// AllocateContext (of any heuristic), and the other read paths
// concurrently. All heuristics in this package precompute before
// fanning out their own workers, so the only way to race is to hand an
// un-precomputed Problem to multiple goroutines without calling
// PrecomputeContext first.
type Problem struct {
	Sys      *sysmodel.System
	Batch    sysmodel.Batch
	Deadline float64

	// Edges are optional precedence constraints over the batch: edge
	// {From, To} means application From must finish before To starts.
	// With edges present the objective becomes the DAG phi_1 — per-
	// application completion PMFs composed along predecessor chains
	// (sysmodel.ComposeDAG / ComposeDAGGrid) and multiplied over the
	// sink applications — and PrecomputeContext retains each cell's
	// full completion-time distribution so compositions reuse the
	// table. An empty edge set leaves every code path bit-identical to
	// the independent-batch engine. Set it before PrecomputeContext.
	Edges []sysmodel.Edge

	// Backend selects the PMF representation used when evaluating
	// completion-time cells: the exact sparse pulses (the zero value)
	// or the dense fixed-step grid, which trades the quantization
	// error bounded in DESIGN.md for much faster kernels. The choice
	// only affects how each cell's (probability, expectation) pair is
	// computed; the searches themselves are identical. Set it before
	// PrecomputeContext, like every other field.
	Backend pmf.Backend

	// Obs receives the search's instrumentation: counters (cell
	// evaluations, table hits/misses, precompute wall time, and
	// ra.exhaustive_scanned, the allocations exhaustive scored) in
	// Obs.Metrics, and wall-clock spans of the precompute
	// build, each exhaustive partition and the tabu walk, on
	// lanes under "stage1/", in Obs.Tracer.
	// The zero Scope records nothing. Set it before PrecomputeContext —
	// the hot-path counters are cached when the table is built,
	// following the same single-goroutine construction contract as the
	// table itself. Instrumentation never touches the
	// search's rng streams, so allocations are identical under any
	// scope.
	Obs tracing.Scope

	// Cache optionally shares warm evaluation-table distributions
	// across Problems. On a warm hit, PrecomputeContext derives every
	// cell's (Pr(T <= Delta), E[T]) pair from the cached completion-time
	// distribution — one cached-CDF PrLE read per cell — instead of
	// rebuilding the completion PMFs; the distributions are
	// deadline-invariant (under the sparse backend), so Problems that
	// differ only in deadline, heuristic, or runtime availability cases
	// share one warm entry. Cell values are bit-identical with the
	// cache enabled, disabled, warm, or cold. With edges present,
	// Evaluate also reads and fills the cache's evaluation tier. Nil
	// disables sharing. Set it before PrecomputeContext, like every
	// other field.
	Cache *cache.Cache

	// table is the eagerly built (application x type x log2(count))
	// evaluation table; see PrecomputeContext in table.go. The search
	// heuristics evaluate the same cell many times (the exhaustive
	// search revisits each application/type/count triple across
	// thousands of allocations), and a completion-PMF construction
	// costs O(pulses) — the dense table removes >90% of the Stage-I
	// search cost and makes the inner loops lock-free O(1) array reads.
	table *evalTable

	// instr caches the metric primitives used on the evaluation hot
	// path; the fields are nil (no-op) when metrics are disabled. It is
	// populated by PrecomputeContext alongside the table.
	instr instr

	// warmHits/warmMisses count the evaluation-table cells derived from
	// the warm cache vs computed from scratch. Written once by
	// PrecomputeContext before the table is published (same
	// happens-before edge as the table itself), read via CacheCounts.
	warmHits, warmMisses int64
}

// CacheCounts reports how many evaluation-table cells were derived
// from a warm cache entry and how many were computed from scratch
// during PrecomputeContext. Both are zero before PrecomputeContext or
// when no Cache is attached; a fully warm build has warmMisses == 0.
func (p *Problem) CacheCounts() (warmHits, warmMisses int64) {
	return p.warmHits, p.warmMisses
}

// instr holds the cached per-Problem metric primitives.
type instr struct {
	evals  *metrics.Counter // ra.evaluations: every evalCell call
	hits   *metrics.Counter // ra.table_hits: O(1) table reads
	misses *metrics.Counter // ra.table_misses: direct computeCell falls
}

type memoVal struct {
	prob     float64
	expected float64
}

// evalCell returns (Pr(T_i <= Delta), E[T_i]) for application i under
// assignment as. Power-of-2 assignments within capacity — everything
// the searches generate — are O(1) reads of the evaluation table;
// anything else (e.g. a hand-written non-power-of-2 allocation passed
// to Objective) is computed directly.
func (p *Problem) evalCell(i int, as sysmodel.Assignment) memoVal {
	t := p.table
	if t == nil {
		// Lazily build the table on the calling goroutine for Problems
		// used without an explicit PrecomputeContext. An invalid
		// instance cannot build a table; fall through to the direct
		// computation, which panics or returns garbage exactly as eager
		// evaluation would.
		if err := p.PrecomputeContext(context.TODO(), 1); err != nil {
			return p.computeCell(i, as)
		}
		t = p.table
	}
	p.instr.evals.Inc()
	if k, ok := log2of(as.Procs); ok && k < t.logs && as.Type >= 0 && as.Type < t.types && i >= 0 && i < len(p.Batch) {
		p.instr.hits.Inc()
		return t.cells[(i*t.types+as.Type)*t.logs+k]
	}
	p.instr.misses.Inc()
	return p.computeCell(i, as)
}

// Validate checks the instance.
func (p *Problem) Validate() error {
	if p.Sys == nil {
		return fmt.Errorf("ra: nil system")
	}
	if err := p.Sys.Validate(); err != nil {
		return err
	}
	if err := p.Batch.Validate(len(p.Sys.Types)); err != nil {
		return err
	}
	if p.Deadline <= 0 {
		return fmt.Errorf("ra: non-positive deadline %v", p.Deadline)
	}
	if err := p.Backend.Validate(); err != nil {
		return fmt.Errorf("ra: %w", err)
	}
	if err := sysmodel.ValidateEdges(p.Edges, len(p.Batch)); err != nil {
		return fmt.Errorf("ra: %w", err)
	}
	return nil
}

// Objective returns phi_1 for an allocation; invalid allocations return
// an error. For an independent batch, evaluations are O(1) reads of the
// precomputed evaluation table; with precedence edges the completion
// distributions behind the cells are composed along the DAG first (see
// dag.go). Either way, Objective is safe for concurrent use once the
// Problem is precomputed.
func (p *Problem) Objective(al sysmodel.Allocation) (float64, error) {
	if err := al.Validate(p.Sys, p.Batch); err != nil {
		return 0, err
	}
	if len(p.Edges) > 0 {
		return p.dagPhi(al), nil
	}
	phi := 1.0
	for i := range p.Batch {
		phi *= p.evalCell(i, al[i]).prob
	}
	return phi, nil
}

// appProb returns Pr(T_i <= Delta) for a single application under one
// assignment; it is the incremental building block shared by the
// constructive heuristics.
func (p *Problem) appProb(i int, as sysmodel.Assignment) float64 {
	return p.evalCell(i, as).prob
}

// appExpected returns E[T_i] for a single application under one
// assignment.
func (p *Problem) appExpected(i int, as sysmodel.Assignment) float64 {
	return p.evalCell(i, as).expected
}

// Heuristic is a Stage-I resource allocation policy.
type Heuristic interface {
	// Name identifies the heuristic in reports.
	Name() string
	// AllocateContext returns a feasible allocation for the problem, or
	// an error if none exists or the instance is invalid. The search
	// cooperates with ctx: it returns promptly after ctx is cancelled,
	// with an error wrapping ctx.Err() and no partial allocation. An
	// un-cancelled context never changes the result.
	AllocateContext(ctx context.Context, p *Problem) (sysmodel.Allocation, error)
}

var heuristics = map[string]func() Heuristic{}

func registerHeuristic(name string, mk func() Heuristic) {
	key := strings.ToLower(name)
	if _, dup := heuristics[key]; dup {
		panic("ra: duplicate heuristic " + name)
	}
	heuristics[key] = mk
}

// ByName is the single lookup behind every surface that names a
// heuristic — CLI flags, service requests, report labels. It returns a
// fresh instance of the named heuristic (case-insensitive) with default
// parameters, or an error listing the registered names, so wire names
// and flag values can never drift from the registry.
func ByName(name string) (Heuristic, error) {
	mk, ok := heuristics[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("ra: unknown heuristic %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return mk(), nil
}

// WorkerSettable is implemented by heuristics with a worker-pool knob:
// SetWorkers bounds the search's parallelism. Worker count never
// changes a heuristic's result, only its wall-clock time; non-positive
// values mean runtime.NumCPU(). Heuristics that search in parallel
// implement it on their pointer receiver, so registry-constructed
// instances (which are pointers) pick up the CLIs' -workers flag
// automatically — a new heuristic cannot silently miss the plumbing by
// being left out of a central type switch.
type WorkerSettable interface {
	SetWorkers(workers int)
}

// SetWorkers configures the worker-pool bound on heuristics
// implementing WorkerSettable (exhaustive and tabu),
// returning true if h supports the knob. It is how the CLIs thread
// their -workers flag through to registry-constructed heuristics.
func SetWorkers(h Heuristic, workers int) bool {
	ws, ok := h.(WorkerSettable)
	if ok {
		ws.SetWorkers(workers)
	}
	return ok
}

// SeedSettable is implemented by heuristics whose search is driven by
// a random seed (tabu). Like WorkerSettable it is
// implemented on the pointer receiver, so registry-constructed
// instances pick up a caller-supplied seed without a central type
// switch. Reseeding changes which allocation a stochastic search
// returns, but for a fixed seed the result stays bit-identical across
// runs and worker counts.
type SeedSettable interface {
	SetSeed(seed uint64)
}

// SetSeed reseeds heuristics implementing SeedSettable, returning true
// if h supports the knob. Deterministic heuristics (naive, greedy,
// exhaustive, ...) ignore seeds and return false.
func SetSeed(h Heuristic, seed uint64) bool {
	ss, ok := h.(SeedSettable)
	if ok {
		ss.SetSeed(seed)
	}
	return ok
}

// Names returns the registered heuristic names, sorted.
func Names() []string {
	out := make([]string, 0, len(heuristics))
	for k := range heuristics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// feasibleCounts returns the power-of-2 processor counts available for
// type j given the remaining capacity.
func feasibleCounts(remaining int) []int {
	return sysmodel.PowerOfTwoCounts(remaining)
}

// bestSingleApp returns the assignment maximizing the application's own
// deadline probability within the remaining capacity (ties broken by
// smaller expected completion time, then by fewer processors), leaving
// at least `reserve` processors free for yet-unassigned applications.
// ok is false if no assignment satisfies the reservation.
func (p *Problem) bestSingleApp(i int, remaining []int, reserve int) (sysmodel.Assignment, bool) {
	total := 0
	for _, r := range remaining {
		total += r
	}
	best := sysmodel.Assignment{}
	bestProb := -1.0
	bestExp := math.Inf(1)
	found := false
	for j := range p.Sys.Types {
		for _, c := range feasibleCounts(remaining[j]) {
			if total-c < reserve {
				continue
			}
			as := sysmodel.Assignment{Type: j, Procs: c}
			prob := p.appProb(i, as)
			exp := p.appExpected(i, as)
			better := prob > bestProb+1e-12 ||
				(math.Abs(prob-bestProb) <= 1e-12 && exp < bestExp-1e-9) ||
				(math.Abs(prob-bestProb) <= 1e-12 && math.Abs(exp-bestExp) <= 1e-9 && c < best.Procs)
			if !found || better {
				best, bestProb, bestExp, found = as, prob, exp, true
			}
		}
	}
	return best, found
}
