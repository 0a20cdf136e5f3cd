package dls

import (
	"math"
)

// This file implements the adaptive techniques AWF-B, AWF-C, and AF.
//
// AWF (adaptive weighted factoring, Carino & Banicescu) keeps weighted
// factoring's batch structure but learns the worker weights at runtime
// from measured performance instead of trusting a-priori estimates. The
// B and C variants differ in update granularity: AWF-B recomputes the
// weights at every batch boundary, AWF-C after every completed chunk.
// The weight of worker i is proportional to its measured execution rate
// (iterations per unit time), normalized so the weights sum to P.
//
// AF (adaptive factoring, Banicescu & Liu) drops the fixed batch ratio
// entirely: it estimates the per-iteration mean mu_i and variance
// sigma_i^2 of every worker at runtime and sizes the next chunk for
// worker i as
//
//	k_i = (D + 2*T*R - sqrt(D^2 + 4*D*T*R)) / (2*mu_i)
//
// where R is the number of remaining iterations,
// D = sum_j sigma_j^2/mu_j and T = 1/sum_j(1/mu_j). The formula chooses
// the chunk whose expected finishing time, inflated by the measured
// variability, matches the optimal probabilistic bound; more variable or
// slower workers automatically receive smaller chunks. Until a worker
// has produced a measurement, a bootstrap chunk of R/(2P) (factoring's
// first-batch share) is used.

func init() {
	register(Technique{Name: "AWF-B", Adaptive: true, New: newAWFB})
	register(Technique{Name: "AWF-C", Adaptive: true, New: newAWFC})
	register(Technique{Name: "AF", Adaptive: true, New: newAF})
}

// perfTracker accumulates per-worker measured execution rates.
type perfTracker struct {
	time  []float64 // cumulative execution time per worker
	iters []int     // cumulative iterations per worker
}

func newPerfTracker(workers int) perfTracker {
	return perfTracker{time: make([]float64, workers), iters: make([]int, workers)}
}

func (p *perfTracker) observe(w, size int, elapsed float64) {
	p.time[w] += elapsed
	p.iters[w] += size
}

// weights returns execution-rate-proportional weights normalized to sum
// to the worker count. Workers without measurements receive the mean
// measured rate (or 1 if nothing is measured yet), so early batches stay
// close to equal shares.
func (p *perfTracker) weights() []float64 {
	n := len(p.time)
	rates := make([]float64, n)
	sum, measured := 0.0, 0
	for i := range rates {
		if p.iters[i] > 0 && p.time[i] > 0 {
			rates[i] = float64(p.iters[i]) / p.time[i]
			sum += rates[i]
			measured++
		}
	}
	fallback := 1.0
	if measured > 0 {
		fallback = sum / float64(measured)
	}
	total := 0.0
	for i := range rates {
		if rates[i] == 0 {
			rates[i] = fallback
		}
		total += rates[i]
	}
	w := make([]float64, n)
	for i := range rates {
		w[i] = rates[i] * float64(n) / total
	}
	return w
}

// awf implements AWF-B and AWF-C, differing only in when weights are
// refreshed.
type awf struct {
	name     string
	perBatch bool // true: refresh at batch boundaries (AWF-B); false: every chunk (AWF-C)
	b        batcher
	weights  []float64
	perf     perfTracker
}

func newAWFB(s Setup) (Scheduler, error) { return newAWF(s, "AWF-B", true) }
func newAWFC(s Setup) (Scheduler, error) { return newAWF(s, "AWF-C", false) }

func newAWF(s Setup, name string, perBatch bool) (Scheduler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &awf{
		name:     name,
		perBatch: perBatch,
		b:        batcher{remaining: s.Iterations, workers: s.Workers},
		weights:  s.normWeights(),
		perf:     newPerfTracker(s.Workers),
	}, nil
}

func (a *awf) Name() string   { return a.name }
func (a *awf) Remaining() int { return a.b.remaining }

func (a *awf) Next(worker int) int {
	if a.b.batchLeft <= 0 && a.b.remaining > 0 {
		if a.perBatch && a.anyMeasured() {
			a.weights = a.perf.weights()
		}
		a.b.openBatch()
	}
	k := int(math.Round(float64(a.b.batchChunk) * a.weights[worker]))
	return a.b.take(k)
}

func (a *awf) anyMeasured() bool {
	for _, it := range a.perf.iters {
		if it > 0 {
			return true
		}
	}
	return false
}

func (a *awf) Report(w, size int, elapsed float64) {
	a.perf.observe(w, size, elapsed)
	if !a.perBatch {
		a.weights = a.perf.weights()
	}
}

// afChunk is one completed chunk's measurement: size and mean
// per-iteration time.
type afChunk struct {
	k int
	m float64
}

// af implements adaptive factoring.
type af struct {
	remaining int
	workers   int
	chunks    [][]afChunk // per-worker completed-chunk measurements
	bootstrap int         // base chunk used before a worker has estimates
	weights   []float64   // a-priori weights scaling the bootstrap chunks
}

func newAF(s Setup) (Scheduler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	boot := ceilDiv(s.Iterations, 2*s.Workers)
	if boot < 1 {
		boot = 1
	}
	return &af{
		remaining: s.Iterations,
		workers:   s.Workers,
		chunks:    make([][]afChunk, s.Workers),
		bootstrap: boot,
		weights:   s.normWeights(),
	}, nil
}

// bootChunk is the pre-measurement chunk for a worker: factoring's
// first-batch share scaled by the a-priori weight, so a processor known
// to be heavily loaded is not sunk by its very first chunk.
func (a *af) bootChunk(worker int) int {
	k := int(math.Round(float64(a.bootstrap) * a.weights[worker]))
	return clampChunk(k, a.remaining)
}

func (a *af) Name() string   { return "AF" }
func (a *af) Remaining() int { return a.remaining }

// workerMoments estimates worker w's per-iteration mean and variance
// from its completed chunks. The mean is the iteration-weighted average
// of the chunk means. Because a chunk of k iterations only exposes its
// mean m (distributed with variance sigma^2/k), the per-iteration
// variance is recovered as the chunk-count average of k*(m - mu)^2,
// which is unbiased for i.i.d. iteration times.
func (a *af) workerMoments(w int) (mu, varc float64, ok bool) {
	cs := a.chunks[w]
	if len(cs) == 0 {
		return 0, 0, false
	}
	sumK, sumKM := 0.0, 0.0
	for _, c := range cs {
		sumK += float64(c.k)
		sumKM += float64(c.k) * c.m
	}
	mu = sumKM / sumK
	if len(cs) == 1 {
		// A single chunk cannot expose spread; assume a conservative
		// 10% coefficient of variation until a second measurement lands.
		sd := 0.1 * mu
		return mu, sd * sd, true
	}
	s := 0.0
	for _, c := range cs {
		d := c.m - mu
		s += float64(c.k) * d * d
	}
	return mu, s / float64(len(cs)-1), true
}

// moments returns the current (mu, sigma^2) estimates for all workers,
// falling back to the average over measured workers.
func (a *af) moments() (mu, varc []float64, haveAny bool) {
	mu = make([]float64, a.workers)
	varc = make([]float64, a.workers)
	sumMu, sumVar, measured := 0.0, 0.0, 0
	seen := make([]bool, a.workers)
	for i := range a.chunks {
		if m, v, ok := a.workerMoments(i); ok {
			mu[i], varc[i] = m, v
			seen[i] = true
			sumMu += m
			sumVar += v
			measured++
		}
	}
	if measured == 0 {
		return mu, varc, false
	}
	mMu, mVar := sumMu/float64(measured), sumVar/float64(measured)
	for i := range mu {
		if !seen[i] {
			mu[i], varc[i] = mMu, mVar
		}
	}
	return mu, varc, true
}

func (a *af) Next(worker int) int {
	if a.remaining <= 0 {
		return 0
	}
	mu, varc, ok := a.moments()
	if !ok || mu[worker] <= 0 {
		k := a.bootChunk(worker)
		a.remaining -= k
		return k
	}
	// D = sum_j sigma_j^2 / mu_j ; T = 1 / sum_j (1/mu_j).
	d, invSum := 0.0, 0.0
	for j := 0; j < a.workers; j++ {
		if mu[j] <= 0 {
			continue
		}
		d += varc[j] / mu[j]
		invSum += 1 / mu[j]
	}
	if invSum <= 0 {
		k := a.bootChunk(worker)
		a.remaining -= k
		return k
	}
	t := 1 / invSum
	r := float64(a.remaining)
	num := d + 2*t*r - math.Sqrt(d*d+4*d*t*r)
	k := int(math.Floor(num / (2 * mu[worker])))
	// Batch cap: never hand out more than the worker's rate-
	// proportional share of half the remaining iterations. The original
	// AF is batch-structured; without this factoring-style geometric
	// tail a slow worker can receive a final chunk large enough to
	// become the application's straggler when the measured variance
	// (and hence the sqrt margin) is still small.
	share := (1 / mu[worker]) / invSum
	if cap := int(math.Ceil(r / 2 * share)); k > cap {
		k = cap
	}
	k = clampChunk(k, a.remaining)
	a.remaining -= k
	return k
}

func (a *af) Report(w, size int, elapsed float64) {
	if size <= 0 || elapsed <= 0 {
		return
	}
	a.chunks[w] = append(a.chunks[w], afChunk{k: size, m: elapsed / float64(size)})
}
