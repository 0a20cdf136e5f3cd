package ra

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"cdsf/internal/rng"
	"cdsf/internal/sysmodel"
)

// This file implements the tabu-search allocator. It optimizes phi_1
// over the same feasible space as the exhaustive search (power-of-2
// counts, single type per application, capacity limits), starts from
// a random feasible allocation, and repairs oversubscribed neighbors.
// On a DAG objective, where exhaustive scans unpruned, it is the
// registry's search (EXPERIMENTS.md "DAG tournament").
//
// The search is one seeded walk. Its parameters are the constants
// below; only the seed and the worker count of the evaluation-table
// build are settable, and the result never depends on the worker
// count.

// Tabu search: search steps, tabu list length, and neighbors sampled
// per step.
const (
	tabuIterations = 400
	tabuTenure     = 50
	tabuCandidates = 20
)

func init() {
	registerHeuristic("tabu", func() Heuristic { return &TabuSearch{} })
}

// runWalk validates p, builds its evaluation table on workers, and
// runs one walk on the rng stream split from seed, under a
// "stage1/<name>" trace span. A cancelled ctx always yields an error
// wrapping ctx.Err(), never a partial result.
func runWalk(ctx context.Context, p *Problem, name string, workers int, seed uint64, walk func(context.Context, *Problem, *rng.Source) (sysmodel.Allocation, error)) (sysmodel.Allocation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.PrecomputeContext(ctx, workers); err != nil {
		return nil, err
	}
	region := p.Obs.Tracer.Begin("stage1/"+name, name, "stage1")
	al, err := walk(ctx, p, rng.New(seed).Split())
	region.End()
	if cerr := ctx.Err(); cerr != nil {
		return nil, searchErr(name, cerr)
	}
	return al, err
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

// TabuSearch is a best-improvement local search over the neighbor move
// set with a fixed-length tabu list on visited allocations.
type TabuSearch struct {
	// Seed drives the sampling.
	Seed uint64
	// Workers bounds the evaluation-table build; non-positive means
	// runtime.NumCPU(). The result never depends on it.
	Workers int
}

// Name returns "tabu".
func (h *TabuSearch) Name() string { return "tabu" }

// SetWorkers implements WorkerSettable.
func (h *TabuSearch) SetWorkers(workers int) { h.Workers = workers }

// SetSeed implements SeedSettable.
func (h *TabuSearch) SetSeed(seed uint64) { h.Seed = seed }

// AllocateContext implements Heuristic: the search checks ctx every
// metaCheckStride steps.
func (h *TabuSearch) AllocateContext(ctx context.Context, p *Problem) (sysmodel.Allocation, error) {
	return runWalk(ctx, p, "tabu", h.Workers, h.Seed+0x7a7a, tabuSearch)
}

// tabuSearch runs one tabu search on r.
func tabuSearch(ctx context.Context, p *Problem, r *rng.Source) (sysmodel.Allocation, error) {
	cur, ok := randomAllocation(p, r)
	if !ok {
		return nil, fmt.Errorf("ra: tabu could not build an initial allocation")
	}
	curPhi, err := p.Objective(cur)
	if err != nil {
		return nil, err
	}
	best, bestPhi := cur.Clone(), curPhi
	// The tabu list keys an allocation by its (type, procs) pairs as
	// consecutive uvarints, a self-delimiting and hence injective
	// encoding. Lookups convert the reused buffer without allocating;
	// only insertions copy it.
	var buf []byte
	key := func(al sysmodel.Allocation) []byte {
		buf = buf[:0]
		for _, as := range al {
			buf = binary.AppendUvarint(buf, uint64(as.Type))
			buf = binary.AppendUvarint(buf, uint64(as.Procs))
		}
		return buf
	}
	tabu := map[string]bool{string(key(cur)): true}
	// phi_1 is a deterministic function of the allocation, and a walk
	// samples most neighbors more than once (on the DAG service shape,
	// 8,000 samples hold ~2,400-3,200 distinct allocations), so each
	// distinct neighbor is scored once: on a DAG a score is a whole
	// composition. The memo lives only as long as the walk, since the
	// spaces walks move through run to millions of allocations.
	scores := map[string]float64{}
	var order []string
	for k := 0; k < tabuIterations; k++ {
		if k%metaCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		var stepBest sysmodel.Allocation
		stepPhi := math.Inf(-1)
		for c := 0; c < tabuCandidates; c++ {
			cand, ok := neighbor(p, cur, r)
			if !ok {
				continue
			}
			ck := key(cand)
			phi, ok := scores[string(ck)]
			if !ok {
				if phi, err = p.Objective(cand); err != nil {
					continue
				}
				scores[string(ck)] = phi
			}
			// Aspiration: a tabu move is allowed if it beats the global
			// best.
			if phi <= bestPhi && tabu[string(ck)] {
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
		id := string(key(cur))
		tabu[id] = true
		order = append(order, id)
		if len(order) > tabuTenure {
			delete(tabu, order[0])
			order = order[1:]
		}
		if curPhi > bestPhi {
			best, bestPhi = cur.Clone(), curPhi
		}
	}
	return best, nil
}
