package dls

import (
	"math"
)

// This file implements the batched probabilistic techniques FAC and WF.
//
// Factoring (Hummel, Schonberg & Flynn) schedules iterations in batches:
// each batch contains a fixed ratio (here 1/2, the practical "FAC2"
// rule derived from the probabilistic analysis) of the remaining
// iterations, split into P equal chunks. Early batches are large enough
// to amortize overhead; the geometric tail smooths out imbalance.
//
// Weighted factoring (Banicescu, Hummel et al.) keeps factoring's batch
// rule but splits each batch proportionally to fixed a-priori worker
// weights, so faster or more-available processors receive proportionally
// more iterations of every batch.

func init() {
	register(Technique{Name: "FAC", New: newFAC})
	register(Technique{Name: "WF", New: newWF})
}

// batcher carries the shared batch bookkeeping for FAC and WF (and so
// for the AWF variants built on WF): a batch is opened over ceil(R/2)
// iterations and closed when its iterations have all been handed out.
type batcher struct {
	remaining  int // iterations not yet handed out (loop-wide)
	batchLeft  int // iterations of the current batch not yet handed out
	batchChunk int // equal per-worker share of the current batch
	workers    int
}

// openBatch starts a new batch over half the remaining iterations.
func (b *batcher) openBatch() {
	b.batchLeft = ceilDiv(b.remaining, 2)
	b.batchChunk = ceilDiv(b.batchLeft, b.workers)
	if b.batchChunk < 1 {
		b.batchChunk = 1
	}
}

// take removes up to k iterations from the current batch (opening a new
// one if exhausted) and from the loop, returning the granted size.
func (b *batcher) take(k int) int {
	if b.remaining <= 0 {
		return 0
	}
	if b.batchLeft <= 0 {
		b.openBatch()
	}
	if k > b.batchLeft {
		k = b.batchLeft
	}
	k = clampChunk(k, b.remaining)
	b.batchLeft -= k
	b.remaining -= k
	return k
}

// fac implements factoring with the practical factor-2 rule.
type fac struct {
	b batcher
}

func newFAC(s Setup) (Scheduler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &fac{b: batcher{remaining: s.Iterations, workers: s.Workers}}, nil
}

func (f *fac) Remaining() int { return f.b.remaining }

func (f *fac) Next(int) int {
	if f.b.batchLeft <= 0 && f.b.remaining > 0 {
		f.b.openBatch()
	}
	return f.b.take(f.b.batchChunk)
}

func (f *fac) Report(int, int, float64) {}

// wf implements weighted factoring: factoring batches split by fixed
// relative worker weights (normalized to sum to P).
type wf struct {
	b       batcher
	weights []float64
}

func newWF(s Setup) (Scheduler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	w := makeWF(s)
	return &w, nil
}

// makeWF returns weighted factoring's initial state for a valid setup;
// the AWF variants start from it and change only the weights.
func makeWF(s Setup) wf {
	return wf{
		b:       batcher{remaining: s.Iterations, workers: s.Workers},
		weights: s.normWeights(),
	}
}

func (w *wf) Remaining() int { return w.b.remaining }

func (w *wf) Next(worker int) int {
	if w.b.batchLeft <= 0 && w.b.remaining > 0 {
		w.b.openBatch()
	}
	k := int(math.Round(float64(w.b.batchChunk) * w.weights[worker]))
	return w.b.take(k)
}

func (w *wf) Report(int, int, float64) {}
