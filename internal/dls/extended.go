package dls

import (
	"math"
)

// This file implements the extended technique set beyond the paper's
// Stage-II choices — the additional methods its future-work section
// points to (Carino & Banicescu, "Dynamic load balancing with adaptive
// factoring methods in scientific applications", J. Supercomputing
// 2008):
//
//   - AWF-D and AWF-E: like AWF-B and AWF-C, but the measured cost of a
//     chunk includes the scheduling overhead h, so the learned weights
//     account for dispatch cost and not just execution speed.
//   - TFSS (trapezoid factoring self-scheduling): factoring's batch
//     structure with TSS's linearly decreasing batch sizes.
//   - FISS (fixed increase size scheduling): chunk sizes *increase*
//     linearly — small exploratory chunks first, large chunks once the
//     system is warmed up.
//   - VISS (variable increase size scheduling): chunk sizes increase
//     geometrically (the mirror image of factoring).
//   - AWF (the original time-stepping variant): weighted factoring
//     whose weights are re-learned only at application time-step
//     boundaries; see TimeStepper.

func init() {
	register(Technique{Name: "AWF-D", Adaptive: true, New: newAWFD})
	register(Technique{Name: "AWF-E", Adaptive: true, New: newAWFE})
	register(Technique{Name: "AWF", Adaptive: true, New: newAWFT})
	register(Technique{Name: "TFSS", New: newTFSS})
	register(Technique{Name: "FISS", New: newFISS})
	register(Technique{Name: "VISS", New: newVISS})
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

// awfOverhead wraps the AWF batch machinery with overhead-inclusive
// measurements: the recorded cost of a chunk is elapsed + h, matching
// the AWF-D/E definitions.
type awfOverhead struct {
	awf
	overhead float64
}

func newAWFD(s Setup) (Scheduler, error) { return newAWFOv(s, "AWF-D", true) }
func newAWFE(s Setup) (Scheduler, error) { return newAWFOv(s, "AWF-E", false) }

func newAWFOv(s Setup, name string, perBatch bool) (Scheduler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &awfOverhead{
		awf: awf{
			name:     name,
			perBatch: perBatch,
			b:        batcher{remaining: s.Iterations, workers: s.Workers},
			weights:  s.normWeights(),
			perf:     newPerfTracker(s.Workers),
		},
		overhead: s.Overhead,
	}, nil
}

func (a *awfOverhead) Report(w, size int, elapsed float64) {
	a.awf.Report(w, size, elapsed+a.overhead)
}

// awfTimestep is the original AWF: within a sweep it behaves as
// weighted factoring with the current weights; weights are recomputed
// from cumulative measured performance only at EndStep.
type awfTimestep struct {
	iterations int
	b          batcher
	weights    []float64
	perf       perfTracker
}

func newAWFT(s Setup) (Scheduler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &awfTimestep{
		iterations: s.Iterations,
		b:          batcher{remaining: s.Iterations, workers: s.Workers},
		weights:    s.normWeights(),
		perf:       newPerfTracker(s.Workers),
	}, nil
}

func (a *awfTimestep) Name() string   { return "AWF" }
func (a *awfTimestep) Remaining() int { return a.b.remaining }

func (a *awfTimestep) Next(worker int) int {
	if a.b.batchLeft <= 0 && a.b.remaining > 0 {
		a.b.openBatch()
	}
	k := int(math.Round(float64(a.b.batchChunk) * a.weights[worker]))
	return a.b.take(k)
}

func (a *awfTimestep) Report(w, size int, elapsed float64) {
	a.perf.observe(w, size, elapsed)
}

// EndStep implements TimeStepper: re-learn the weights from everything
// measured so far and re-arm the iteration space.
func (a *awfTimestep) EndStep() {
	measured := false
	for _, it := range a.perf.iters {
		if it > 0 {
			measured = true
			break
		}
	}
	if measured {
		a.weights = a.perf.weights()
	}
	a.b = batcher{remaining: a.iterations, workers: a.b.workers}
}

// tfss implements trapezoid factoring self-scheduling: batches of
// linearly decreasing size (TSS's schedule applied to batches), each
// split equally among the workers.
type tfss struct {
	b     batcher
	next  float64 // next batch size
	delta float64
}

func newTFSS(s Setup) (Scheduler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	first := float64(s.Iterations) / 2
	if first < 1 {
		first = 1
	}
	last := float64(s.Workers)
	if last > first {
		last = first
	}
	c := math.Ceil(2 * float64(s.Iterations) / (first + last))
	delta := 0.0
	if c > 1 {
		delta = (first - last) / (c - 1)
	}
	return &tfss{
		b:     batcher{remaining: s.Iterations, workers: s.Workers},
		next:  first,
		delta: delta,
	}, nil
}

func (t *tfss) Name() string   { return "TFSS" }
func (t *tfss) Remaining() int { return t.b.remaining }

func (t *tfss) Next(int) int {
	if t.b.batchLeft <= 0 && t.b.remaining > 0 {
		size := int(math.Round(t.next))
		if size < 1 {
			size = 1
		}
		if size > t.b.remaining {
			size = t.b.remaining
		}
		t.b.batchLeft = size
		t.b.batchChunk = ceilDiv(size, t.b.workers)
		t.next -= t.delta
		if t.next < 1 {
			t.next = 1
		}
	}
	return t.b.take(t.b.batchChunk)
}

func (t *tfss) Report(int, int, float64) {}

// fiss implements fixed increase size scheduling: chunk sizes grow by a
// constant increment from one stage of P chunks to the next. With
// B = 4 stages, the first chunk is N/((2+B)P) and the increment is
// sized so that the B stages sum to N: chunk k (from 0) is
// round(first + floor(k/P)·incr), the published stage-wise closed form.
type fiss struct {
	remaining int
	workers   int
	sent      int
	first     float64
	incr      float64
}

func newFISS(s Setup) (Scheduler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	const rounds = 4.0
	first := float64(s.Iterations) / ((2 + rounds) * float64(s.Workers))
	if first < 1 {
		first = 1
	}
	// Total over B rounds per worker: P * (B*first + B(B-1)/2 * incr) = N.
	incr := (float64(s.Iterations)/float64(s.Workers) - rounds*first) /
		(rounds * (rounds - 1) / 2)
	if incr < 0 {
		incr = 0
	}
	return &fiss{remaining: s.Iterations, workers: s.Workers, first: first, incr: incr}, nil
}

func (f *fiss) Name() string   { return "FISS" }
func (f *fiss) Remaining() int { return f.remaining }

func (f *fiss) Next(int) int {
	stage := f.sent / f.workers
	k := clampChunk(int(math.Round(f.first+float64(stage)*f.incr)), f.remaining)
	f.remaining -= k
	f.sent++
	return k
}

func (f *fiss) Report(int, int, float64) {}

// viss implements variable increase size scheduling: chunk sizes grow
// geometrically from a small start (factoring run in reverse), capped
// at the remaining iterations.
type viss struct {
	remaining int
	chunk     float64
	factor    float64
	maxChunk  int
}

func newVISS(s Setup) (Scheduler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	first := float64(s.Iterations) / float64(8*s.Workers)
	if first < 1 {
		first = 1
	}
	return &viss{
		remaining: s.Iterations,
		chunk:     first,
		factor:    1.5,
		maxChunk:  ceilDiv(s.Iterations, 2*s.Workers) * 2,
	}, nil
}

func (v *viss) Name() string   { return "VISS" }
func (v *viss) Remaining() int { return v.remaining }

func (v *viss) Next(int) int {
	k := clampChunk(int(math.Round(v.chunk)), v.remaining)
	v.remaining -= k
	v.chunk *= v.factor
	if int(v.chunk) > v.maxChunk {
		v.chunk = float64(v.maxChunk)
	}
	return k
}

func (v *viss) Report(int, int, float64) {}
