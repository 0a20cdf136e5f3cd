package dls

import (
	"math"
	"math/bits"
)

// This file implements the adaptive techniques: the adaptive weighted
// factoring family and AF.
//
// AWF (adaptive weighted factoring, Carino & Banicescu) keeps weighted
// factoring's batch structure but learns the worker weights at runtime
// from measured performance instead of trusting a-priori estimates. The
// weight of worker i is proportional to its measured execution rate
// (iterations per unit time), normalized so the weights sum to P. The
// variants differ in when the weights are re-learned and in what a
// chunk's measured cost includes (Carino & Banicescu, "Dynamic load
// balancing with adaptive factoring methods in scientific
// applications", J. Supercomputing 2008):
//
//   - AWF-B re-learns at every batch boundary, AWF-C after every
//     completed chunk;
//   - AWF-D and AWF-E are AWF-B and AWF-C with the scheduling overhead h
//     added to every chunk's measured time, so the weights account for
//     dispatch cost and not just execution speed;
//   - AWF, the original time-stepping variant, re-learns only at
//     application time-step boundaries (see TimeStepper).
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
	register(Technique{Name: "AWF-B", New: newAWFB})
	register(Technique{Name: "AWF-C", New: newAWFC})
	register(Technique{Name: "AWF-D", New: newAWFD})
	register(Technique{Name: "AWF-E", New: newAWFE})
	register(Technique{Name: "AWF", New: newAWFT})
	register(Technique{Name: "AF", New: newAF})
}

// TimeStepper is implemented by schedulers that support time-stepping
// applications: loops executed repeatedly over the same iteration
// space. EndStep resets the iteration space for the next sweep while
// retaining learned state (the original AWF's defining behaviour).
type TimeStepper interface {
	// EndStep finishes the current sweep and re-arms the scheduler for
	// the next one with the same iteration count.
	EndStep()
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

// weights sets w, one slot per worker, to execution-rate-proportional
// weights normalized to sum to the worker count. Workers without
// measurements receive the mean measured rate (or 1 if nothing is
// measured yet), so early batches stay close to equal shares.
func (p *perfTracker) weights(w []float64) {
	n := len(p.time)
	sum, measured := 0.0, 0
	for i := range w {
		w[i] = 0
		if p.iters[i] > 0 && p.time[i] > 0 {
			w[i] = float64(p.iters[i]) / p.time[i]
			sum += w[i]
			measured++
		}
	}
	fallback := 1.0
	if measured > 0 {
		fallback = sum / float64(measured)
	}
	total := 0.0
	for i := range w {
		if w[i] == 0 {
			w[i] = fallback
		}
		total += w[i]
	}
	for i := range w {
		w[i] = w[i] * float64(n) / total
	}
}

// measured reports whether any worker has reported a chunk.
func (p *perfTracker) measured() bool {
	for _, it := range p.iters {
		if it > 0 {
			return true
		}
	}
	return false
}

// awf implements AWF-B, AWF-C, AWF-D and AWF-E: weighted factoring
// whose weights are re-learned at every batch boundary (perBatch) or
// after every completed chunk.
type awf struct {
	wf
	perBatch bool
	overhead float64 // added to every measured chunk time: h for AWF-D/E, 0 for AWF-B/C
	perf     perfTracker
}

func newAWFB(s Setup) (Scheduler, error) { return newAWF(s, true, 0) }
func newAWFC(s Setup) (Scheduler, error) { return newAWF(s, false, 0) }
func newAWFD(s Setup) (Scheduler, error) { return newAWF(s, true, s.Overhead) }
func newAWFE(s Setup) (Scheduler, error) { return newAWF(s, false, s.Overhead) }

func newAWF(s Setup, perBatch bool, overhead float64) (Scheduler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &awf{
		wf:       makeWF(s),
		perBatch: perBatch,
		overhead: overhead,
		perf:     newPerfTracker(s.Workers),
	}, nil
}

func (a *awf) Next(worker int) int {
	if a.perBatch && a.b.batchLeft <= 0 && a.b.remaining > 0 && a.perf.measured() {
		a.perf.weights(a.weights)
	}
	return a.wf.Next(worker)
}

func (a *awf) Report(w, size int, elapsed float64) {
	a.perf.observe(w, size, elapsed+a.overhead)
	if !a.perBatch {
		a.perf.weights(a.weights)
	}
}

// awfTimestep is the original AWF: within a sweep it is weighted
// factoring with the current weights, which are re-learned from
// cumulative measured performance only at EndStep.
type awfTimestep struct {
	wf
	iterations int
	perf       perfTracker
}

func newAWFT(s Setup) (Scheduler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &awfTimestep{
		wf:         makeWF(s),
		iterations: s.Iterations,
		perf:       newPerfTracker(s.Workers),
	}, nil
}

func (a *awfTimestep) Report(w, size int, elapsed float64) {
	a.perf.observe(w, size, elapsed)
}

// EndStep implements TimeStepper: re-learn the weights from everything
// measured so far and re-arm the iteration space.
func (a *awfTimestep) EndStep() {
	if a.perf.measured() {
		a.perf.weights(a.weights)
	}
	a.b = batcher{remaining: a.iterations, workers: a.b.workers}
}

// afChunk is one completed chunk's measurement: size and mean
// per-iteration time, and the log index of the same worker's next
// chunk (-1 for its latest).
type afChunk struct {
	k    int
	m    float64
	next int
}

// afWorker is what AF keeps of one worker's completed chunks: the log
// indices of its first and latest, their count, the running sums of k
// and k·m over them in report order, and the per-iteration (mu,
// sigma^2) estimate workerMoments makes of them.
type afWorker struct {
	first, last, n int
	sumK, sumKM    float64
	mu, varc       float64
}

// af implements adaptive factoring.
type af struct {
	remaining int
	workers   int
	log       []afChunk  // every worker's completed chunks in one backing array, in report order
	ws        []afWorker // per-worker chunk links, sums and estimates, refreshed in Report
	mu, varc  []float64  // moments' result, reused by every Next
	bootstrap int        // base chunk used before a worker has estimates
	weights   []float64  // a-priori weights scaling the bootstrap chunks
}

func newAF(s Setup) (Scheduler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	boot := ceilDiv(s.Iterations, 2*s.Workers)
	if boot < 1 {
		boot = 1
	}
	// AF's chunks shrink about as factoring's batches do, so a worker
	// reports about two per halving of its share of the loop: the log
	// starts with room for that and grows by append past it.
	logCap := min(s.Iterations, 2*s.Workers*bits.Len(uint(ceilDiv(s.Iterations, s.Workers))))
	return &af{
		remaining: s.Iterations,
		workers:   s.Workers,
		log:       make([]afChunk, 0, logCap),
		ws:        make([]afWorker, s.Workers),
		mu:        make([]float64, s.Workers),
		varc:      make([]float64, s.Workers),
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

func (a *af) Remaining() int { return a.remaining }

// workerMoments estimates a worker's per-iteration mean and variance
// from its completed chunks. The mean is the iteration-weighted average
// of the chunk means. Because a chunk of k iterations only exposes its
// mean m (distributed with variance sigma^2/k), the per-iteration
// variance is recovered as the chunk-count average of k*(m - mu)^2,
// which is unbiased for i.i.d. iteration times.
func (a *af) workerMoments(ws *afWorker) (mu, varc float64) {
	mu = ws.sumKM / ws.sumK
	if ws.n == 1 {
		// A single chunk cannot expose spread; assume a conservative
		// 10% coefficient of variation until a second measurement lands.
		sd := 0.1 * mu
		return mu, sd * sd
	}
	s := 0.0
	for i := ws.first; i >= 0; i = a.log[i].next {
		c := &a.log[i]
		d := c.m - mu
		s += float64(c.k) * d * d
	}
	return mu, s / float64(ws.n-1)
}

// moments returns the current (mu, sigma^2) estimates for all workers,
// falling back to the average over measured workers. The slices are
// a.mu and a.varc, overwritten by the next call.
func (a *af) moments() (mu, varc []float64, haveAny bool) {
	mu, varc = a.mu, a.varc
	sumMu, sumVar, measured := 0.0, 0.0, 0
	for i := range a.ws {
		if e := &a.ws[i]; e.n > 0 {
			mu[i], varc[i] = e.mu, e.varc
			sumMu += e.mu
			sumVar += e.varc
			measured++
		}
	}
	if measured == 0 {
		return mu, varc, false
	}
	mMu, mVar := sumMu/float64(measured), sumVar/float64(measured)
	for i := range a.ws {
		if a.ws[i].n == 0 {
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
	c := afChunk{k: size, m: elapsed / float64(size), next: -1}
	ws := &a.ws[w]
	if ws.n == 0 {
		ws.first = len(a.log)
	} else {
		a.log[ws.last].next = len(a.log)
	}
	ws.last = len(a.log)
	a.log = append(a.log, c)
	ws.n++
	ws.sumK += float64(c.k)
	ws.sumKM += float64(c.k) * c.m
	ws.mu, ws.varc = a.workerMoments(ws)
}
