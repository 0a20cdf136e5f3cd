package ra

import (
	"context"
	"fmt"
	"math"
	"sort"

	"cdsf/internal/rng"
	"cdsf/internal/sysmodel"
)

// This file implements the metaheuristic allocators:
// SimulatedAnnealing, GeneticAlgorithm, and TabuSearch. All optimize
// phi_1 over the same feasible space as the exhaustive search (power-of-2
// counts, single type per application, capacity limits), start from
// random feasible allocations, and share a repair operator that shrinks
// oversubscribed allocations.
//
// Every metaheuristic supports independent restarts fanned out across
// a worker pool. Each restart draws from its own rng stream, split
// sequentially from the heuristic's seed before any worker starts, and
// the restart results are merged in restart order — so for a fixed
// seed the outcome is bit-identical for any worker count.

func init() {
	registerHeuristic("anneal", func() Heuristic { return &SimulatedAnnealing{} })
	registerHeuristic("genetic", func() Heuristic { return &GeneticAlgorithm{} })
	registerHeuristic("tabu", func() Heuristic { return &TabuSearch{} })
}

// restartStreams derives n independent rng streams from seed. The
// splits happen sequentially on the calling goroutine, so stream k is
// the same function of (seed, k) no matter how many workers later
// consume the streams.
func restartStreams(seed uint64, n int) []*rng.Source {
	parent := rng.New(seed)
	out := make([]*rng.Source, n)
	for i := range out {
		out[i] = parent.Split()
	}
	return out
}

// restartResult is one restart's outcome.
type restartResult struct {
	al  sysmodel.Allocation
	phi float64
	err error
}

// runRestarts executes run once per stream across a worker pool and
// merges the results in restart order: the first restart with a
// strictly higher phi_1 wins. It returns the first error only when
// every restart failed. label names the heuristic in the restarts'
// trace spans (lanes "stage1/<label>/r<k>").
//
// Cancellation: the pool stops claiming restarts once ctx is cancelled
// and in-flight restarts abort at their own checkpoints; a cancelled
// run always returns an error wrapping ctx.Err() — never a partial
// merge, which would depend on how far the workers got.
func runRestarts(ctx context.Context, p *Problem, label string, workers int, streams []*rng.Source, run func(ctx context.Context, r *rng.Source) (sysmodel.Allocation, float64, error)) (sysmodel.Allocation, error) {
	p.Obs.Metrics.Counter("ra.restarts").Add(int64(len(streams)))
	tr := p.Obs.Tracer
	results := make([]restartResult, len(streams))
	poolErr := runParallel(ctx, workers, len(streams), func(k int) {
		defer tr.Begin(fmt.Sprintf("stage1/%s/r%02d", label, k),
			fmt.Sprintf("%s restart %d", label, k), "stage1").End()
		al, phi, err := run(ctx, streams[k])
		results[k] = restartResult{al: al, phi: phi, err: err}
	})
	if poolErr != nil {
		return nil, searchErr(label, poolErr)
	}
	var best sysmodel.Allocation
	bestPhi := -1.0
	var firstErr error
	for _, r := range results {
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		if r.phi > bestPhi {
			best, bestPhi = r.al, r.phi
		}
	}
	if best == nil {
		return nil, firstErr
	}
	return best, nil
}

// randomAllocation draws a random feasible allocation by assigning
// applications in random order to random options, reserving one
// processor for every yet-unassigned application so the draw cannot
// strand itself. ok is false only when the instance itself is
// infeasible (more applications than processors).
func randomAllocation(p *Problem, r *rng.Source) (sysmodel.Allocation, bool) {
	n := len(p.Batch)
	remaining := make([]int, len(p.Sys.Types))
	total := 0
	for j, t := range p.Sys.Types {
		remaining[j] = t.Count
		total += t.Count
	}
	if total < n {
		return nil, false
	}
	al := make(sysmodel.Allocation, n)
	unassigned := n
	for _, i := range r.Perm(n) {
		type option struct{ j, c int }
		var opts []option
		for j := range p.Sys.Types {
			for _, c := range feasibleCounts(remaining[j]) {
				if total-c < unassigned-1 {
					continue
				}
				opts = append(opts, option{j, c})
			}
		}
		if len(opts) == 0 {
			return nil, false
		}
		o := opts[r.Intn(len(opts))]
		al[i] = sysmodel.Assignment{Type: o.j, Procs: o.c}
		remaining[o.j] -= o.c
		total -= o.c
		unassigned--
	}
	return al, true
}

// repair makes an allocation feasible by halving the processor counts
// of the largest consumers of each oversubscribed type (preserving the
// power-of-2 invariant) until capacities hold. It reports failure if an
// application would drop below one processor.
func repair(p *Problem, al sysmodel.Allocation) bool {
	for {
		used := al.Used(len(p.Sys.Types))
		over := -1
		for j, u := range used {
			if u > p.Sys.Types[j].Count {
				over = j
				break
			}
		}
		if over < 0 {
			return true
		}
		// Halve the biggest allocation on the oversubscribed type.
		big, bigProcs := -1, 0
		for i, as := range al {
			if as.Type == over && as.Procs > bigProcs {
				big, bigProcs = i, as.Procs
			}
		}
		if big < 0 || bigProcs <= 1 {
			return false
		}
		al[big].Procs /= 2
	}
}

// neighbor perturbs one application's assignment: with equal probability
// it changes the processor type (keeping a feasible count) or doubles /
// halves the count. The result is repaired; ok is false when repair
// fails.
func neighbor(p *Problem, al sysmodel.Allocation, r *rng.Source) (sysmodel.Allocation, bool) {
	out := al.Clone()
	i := r.Intn(len(out))
	switch r.Intn(3) {
	case 0: // move to another type
		j := r.Intn(len(p.Sys.Types))
		out[i].Type = j
		if out[i].Procs > p.Sys.Types[j].Count {
			out[i].Procs = largestPow2LE(p.Sys.Types[j].Count)
		}
	case 1: // double
		out[i].Procs *= 2
		if out[i].Procs > p.Sys.Types[out[i].Type].Count {
			out[i].Procs = largestPow2LE(p.Sys.Types[out[i].Type].Count)
		}
	default: // halve
		if out[i].Procs > 1 {
			out[i].Procs /= 2
		}
	}
	if !repair(p, out) {
		return nil, false
	}
	return out, true
}

func largestPow2LE(n int) int {
	c := 1
	for c*2 <= n {
		c *= 2
	}
	return c
}

// SimulatedAnnealing optimizes phi_1 with a geometric cooling schedule
// over the neighbor move set. Zero-valued fields take sensible defaults.
type SimulatedAnnealing struct {
	// Iterations is the number of proposed moves per restart
	// (default 2000).
	Iterations int
	// InitialTemp is the starting temperature in phi_1 units
	// (default 0.2).
	InitialTemp float64
	// Cooling is the per-iteration temperature multiplier
	// (default 0.998).
	Cooling float64
	// Restarts is the number of independent annealing walks
	// (default 1); the best result wins.
	Restarts int
	// Seed drives the walks.
	Seed uint64
	// Workers bounds the restart worker pool; non-positive means
	// runtime.NumCPU(). The result never depends on it.
	Workers int
}

// Name returns "anneal".
func (h *SimulatedAnnealing) Name() string { return "anneal" }

// SetWorkers implements WorkerSettable.
func (h *SimulatedAnnealing) SetWorkers(workers int) { h.Workers = workers }

// SetSeed implements SeedSettable.
func (h *SimulatedAnnealing) SetSeed(seed uint64) { h.Seed = seed }

// AllocateContext implements Heuristic: each walk checks ctx every
// metaCheckStride proposed moves.
func (h *SimulatedAnnealing) AllocateContext(ctx context.Context, p *Problem) (sysmodel.Allocation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.PrecomputeContext(ctx, h.Workers); err != nil {
		return nil, err
	}
	restarts := h.Restarts
	if restarts <= 0 {
		restarts = 1
	}
	return runRestarts(ctx, p, "anneal", h.Workers, restartStreams(h.Seed+0x5a5a, restarts),
		func(ctx context.Context, r *rng.Source) (sysmodel.Allocation, float64, error) {
			return h.annealOnce(ctx, p, r)
		})
}

// annealOnce runs one annealing walk on its own rng stream.
func (h *SimulatedAnnealing) annealOnce(ctx context.Context, p *Problem, r *rng.Source) (sysmodel.Allocation, float64, error) {
	iters := h.Iterations
	if iters <= 0 {
		iters = 2000
	}
	temp := h.InitialTemp
	if temp <= 0 {
		temp = 0.2
	}
	cool := h.Cooling
	if cool <= 0 || cool >= 1 {
		cool = 0.998
	}
	cur, ok := randomAllocation(p, r)
	if !ok {
		return nil, 0, fmt.Errorf("ra: anneal could not build an initial allocation")
	}
	curPhi, err := p.Objective(cur)
	if err != nil {
		return nil, 0, err
	}
	best, bestPhi := cur.Clone(), curPhi
	for k := 0; k < iters; k++ {
		if k%metaCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		cand, ok := neighbor(p, cur, r)
		if !ok {
			continue
		}
		phi, err := p.Objective(cand)
		if err != nil {
			continue
		}
		if phi >= curPhi || r.Float64() < math.Exp((phi-curPhi)/temp) {
			cur, curPhi = cand, phi
			if phi > bestPhi {
				best, bestPhi = cand.Clone(), phi
			}
		}
		temp *= cool
	}
	return best, bestPhi, nil
}

// GeneticAlgorithm evolves a population of allocations with tournament
// selection, uniform per-application crossover, mutation via the
// neighbor move, and elitism. Zero-valued fields take defaults.
type GeneticAlgorithm struct {
	// Population is the population size (default 32).
	Population int
	// Generations is the number of generations (default 60).
	Generations int
	// MutationRate is the per-child mutation probability (default 0.3).
	MutationRate float64
	// Restarts is the number of independent evolutions (default 1); the
	// best result wins.
	Restarts int
	// Seed drives the evolutions.
	Seed uint64
	// Workers bounds the restart worker pool; non-positive means
	// runtime.NumCPU(). The result never depends on it.
	Workers int
}

// Name returns "genetic".
func (h *GeneticAlgorithm) Name() string { return "genetic" }

// SetWorkers implements WorkerSettable.
func (h *GeneticAlgorithm) SetWorkers(workers int) { h.Workers = workers }

// SetSeed implements SeedSettable.
func (h *GeneticAlgorithm) SetSeed(seed uint64) { h.Seed = seed }

// AllocateContext implements Heuristic: each evolution checks ctx once
// per generation.
func (h *GeneticAlgorithm) AllocateContext(ctx context.Context, p *Problem) (sysmodel.Allocation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.PrecomputeContext(ctx, h.Workers); err != nil {
		return nil, err
	}
	restarts := h.Restarts
	if restarts <= 0 {
		restarts = 1
	}
	return runRestarts(ctx, p, "genetic", h.Workers, restartStreams(h.Seed+0x6e6e, restarts),
		func(ctx context.Context, r *rng.Source) (sysmodel.Allocation, float64, error) {
			return h.evolveOnce(ctx, p, r)
		})
}

// evolveOnce runs one evolution on its own rng stream.
func (h *GeneticAlgorithm) evolveOnce(ctx context.Context, p *Problem, r *rng.Source) (sysmodel.Allocation, float64, error) {
	pop := h.Population
	if pop <= 0 {
		pop = 32
	}
	gens := h.Generations
	if gens <= 0 {
		gens = 60
	}
	mut := h.MutationRate
	if mut <= 0 {
		mut = 0.3
	}
	type indiv struct {
		al  sysmodel.Allocation
		phi float64
	}
	eval := func(al sysmodel.Allocation) (indiv, bool) {
		phi, err := p.Objective(al)
		if err != nil {
			return indiv{}, false
		}
		return indiv{al: al, phi: phi}, true
	}
	var cur []indiv
	for len(cur) < pop {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		al, ok := randomAllocation(p, r)
		if !ok {
			continue
		}
		if in, ok := eval(al); ok {
			cur = append(cur, in)
		}
	}
	tournament := func() indiv {
		a := cur[r.Intn(len(cur))]
		b := cur[r.Intn(len(cur))]
		if a.phi >= b.phi {
			return a
		}
		return b
	}
	for g := 0; g < gens; g++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		sort.Slice(cur, func(i, j int) bool { return cur[i].phi > cur[j].phi })
		next := []indiv{cur[0], cur[1%len(cur)]} // elitism
		for len(next) < pop {
			a, b := tournament(), tournament()
			child := a.al.Clone()
			for i := range child {
				if r.Intn(2) == 0 {
					child[i] = b.al[i]
				}
			}
			if !repair(p, child) {
				continue
			}
			if r.Float64() < mut {
				if m, ok := neighbor(p, child, r); ok {
					child = m
				}
			}
			if in, ok := eval(child); ok {
				next = append(next, in)
			}
		}
		cur = next
	}
	best := cur[0]
	for _, in := range cur[1:] {
		if in.phi > best.phi {
			best = in
		}
	}
	return best.al, best.phi, nil
}

// TabuSearch is a best-improvement local search over the neighbor move
// set with a fixed-length tabu list on visited allocations. Zero-valued
// fields take defaults.
type TabuSearch struct {
	// Iterations is the number of search steps per restart
	// (default 400).
	Iterations int
	// Tenure is the tabu list length (default 50).
	Tenure int
	// Candidates is the number of neighbors sampled per step
	// (default 20).
	Candidates int
	// Restarts is the number of independent searches (default 1); the
	// best result wins.
	Restarts int
	// Seed drives the sampling.
	Seed uint64
	// Workers bounds the restart worker pool; non-positive means
	// runtime.NumCPU(). The result never depends on it.
	Workers int
}

// Name returns "tabu".
func (h *TabuSearch) Name() string { return "tabu" }

// SetWorkers implements WorkerSettable.
func (h *TabuSearch) SetWorkers(workers int) { h.Workers = workers }

// SetSeed implements SeedSettable.
func (h *TabuSearch) SetSeed(seed uint64) { h.Seed = seed }

// AllocateContext implements Heuristic: each search checks ctx every
// metaCheckStride steps.
func (h *TabuSearch) AllocateContext(ctx context.Context, p *Problem) (sysmodel.Allocation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.PrecomputeContext(ctx, h.Workers); err != nil {
		return nil, err
	}
	restarts := h.Restarts
	if restarts <= 0 {
		restarts = 1
	}
	return runRestarts(ctx, p, "tabu", h.Workers, restartStreams(h.Seed+0x7a7a, restarts),
		func(ctx context.Context, r *rng.Source) (sysmodel.Allocation, float64, error) {
			return h.searchOnce(ctx, p, r)
		})
}

// searchOnce runs one tabu search on its own rng stream.
func (h *TabuSearch) searchOnce(ctx context.Context, p *Problem, r *rng.Source) (sysmodel.Allocation, float64, error) {
	iters := h.Iterations
	if iters <= 0 {
		iters = 400
	}
	tenure := h.Tenure
	if tenure <= 0 {
		tenure = 50
	}
	cands := h.Candidates
	if cands <= 0 {
		cands = 20
	}
	cur, ok := randomAllocation(p, r)
	if !ok {
		return nil, 0, fmt.Errorf("ra: tabu could not build an initial allocation")
	}
	curPhi, err := p.Objective(cur)
	if err != nil {
		return nil, 0, err
	}
	best, bestPhi := cur.Clone(), curPhi
	tabu := map[string]bool{cur.String(): true}
	var order []string
	push := func(key string) {
		tabu[key] = true
		order = append(order, key)
		if len(order) > tenure {
			delete(tabu, order[0])
			order = order[1:]
		}
	}
	for k := 0; k < iters; k++ {
		if k%metaCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		var stepBest sysmodel.Allocation
		stepPhi := math.Inf(-1)
		for c := 0; c < cands; c++ {
			cand, ok := neighbor(p, cur, r)
			if !ok {
				continue
			}
			key := cand.String()
			phi, err := p.Objective(cand)
			if err != nil {
				continue
			}
			// Aspiration: a tabu move is allowed if it beats the global
			// best.
			if tabu[key] && phi <= bestPhi {
				continue
			}
			if phi > stepPhi {
				stepBest, stepPhi = cand, phi
			}
		}
		if stepBest == nil {
			continue
		}
		cur, curPhi = stepBest, stepPhi
		push(cur.String())
		if curPhi > bestPhi {
			best, bestPhi = cur.Clone(), curPhi
		}
	}
	return best, bestPhi, nil
}
