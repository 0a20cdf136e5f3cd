// Package dls implements the dynamic loop scheduling (DLS) techniques
// the paper employs in Stage II, plus the classic baselines they were
// derived from.
//
// A DLS technique decides, every time a worker becomes idle, how many of
// the remaining loop iterations to hand it as one chunk. The tension is
// classic: large chunks amortize scheduling overhead but risk load
// imbalance when iteration costs or processor availabilities vary; small
// chunks balance load but pay overhead per chunk. The techniques divide
// into:
//
//   - Non-adaptive, static chunk rules: STATIC, SS (self-scheduling),
//     FSC (fixed-size chunking), TSS (trapezoid self-scheduling).
//   - Non-adaptive probabilistic rules: FAC (factoring, Hummel et al.)
//     and WF (weighted factoring, Hummel/Banicescu et al.), which
//     schedule batches of shrinking size.
//   - Adaptive rules: the adaptive weighted factoring family (Carino &
//     Banicescu), which learns WF's weights at runtime — per batch
//     (AWF-B, AWF-D), per chunk (AWF-C, AWF-E) or per time step (AWF) —
//     and AF (adaptive factoring, Banicescu & Liu), which re-estimates
//     per-worker iteration moments at runtime.
//
// The paper's Stage-II sets are {STATIC} (naive) and {FAC, WF, AWF-B,
// AF} (robust). The other seven stay registered because each is the
// strict best of every registered technique on some cell of the DLS
// tournament (EXPERIMENTS.md "DLS tournament").
//
// A Scheduler is single-goroutine state driven by the Stage-II simulator
// (package sim): the simulator calls Next when a worker goes idle and
// Report when a chunk completes.
package dls

import (
	"fmt"
	"sort"
	"strings"
)

// Setup carries the loop and platform parameters a technique needs at
// creation time.
type Setup struct {
	// Iterations is the total number of loop iterations to schedule; it
	// must be positive.
	Iterations int
	// Workers is the number of processors executing the loop; it must be
	// positive.
	Workers int
	// Weights are optional a-priori relative worker speeds used by WF
	// and as the starting point of the AWF variants; nil means equal.
	// They are normalized internally to sum to Workers.
	Weights []float64
	// Overhead is the per-chunk scheduling overhead h in the same time
	// unit as iteration times; FSC uses it to size its chunks.
	Overhead float64
	// IterMean and IterStdDev are a-priori per-iteration execution
	// moments on a dedicated reference processor; FSC and the first AF
	// batch use them. Zero values disable those uses.
	IterMean   float64
	IterStdDev float64
}

func (s Setup) validate() error {
	if s.Iterations <= 0 {
		return fmt.Errorf("dls: %d iterations", s.Iterations)
	}
	if s.Workers <= 0 {
		return fmt.Errorf("dls: %d workers", s.Workers)
	}
	if s.Weights != nil && len(s.Weights) != s.Workers {
		return fmt.Errorf("dls: %d weights for %d workers", len(s.Weights), s.Workers)
	}
	for i, w := range s.Weights {
		if w <= 0 {
			return fmt.Errorf("dls: weight %d is %v", i, w)
		}
	}
	return nil
}

// normWeights returns a copy of s.Weights normalized to sum to Workers,
// or equal weights if none were provided.
func (s Setup) normWeights() []float64 {
	w := make([]float64, s.Workers)
	if s.Weights == nil {
		for i := range w {
			w[i] = 1
		}
		return w
	}
	sum := 0.0
	for _, v := range s.Weights {
		sum += v
	}
	for i, v := range s.Weights {
		w[i] = v * float64(s.Workers) / sum
	}
	return w
}

// Scheduler hands out chunks of loop iterations to workers. A Scheduler
// is not safe for concurrent use; the simulator serializes access (a
// real master would, too).
type Scheduler interface {
	// Remaining returns the number of iterations not yet handed out.
	Remaining() int
	// Next returns the chunk size for the idle worker w in [0, Workers).
	// It returns 0 when no iterations remain; otherwise the result is in
	// [1, Remaining()] and Remaining decreases accordingly.
	Next(w int) int
	// Report informs the scheduler that worker w finished a chunk of
	// `size` iterations in `elapsed` time units (execution only, not
	// scheduling overhead). Adaptive techniques update their estimates;
	// others ignore it.
	Report(w, size int, elapsed float64)
}

// Technique is a named scheduler factory.
type Technique struct {
	// Name is the canonical technique name, e.g. "AWF-B".
	Name string
	// New creates a fresh Scheduler for one loop execution. It returns
	// an error for invalid setups.
	New func(Setup) (Scheduler, error)
}

var registry = map[string]Technique{}

// register adds a technique; it panics on duplicates (programmer error).
func register(t Technique) {
	key := strings.ToUpper(t.Name)
	if _, dup := registry[key]; dup {
		panic("dls: duplicate technique " + t.Name)
	}
	registry[key] = t
}

// ByName looks up a technique by name, ignoring case and surrounding
// spaces. An unknown name's error lists the registered names.
func ByName(name string) (Technique, error) {
	t, ok := registry[strings.ToUpper(strings.TrimSpace(name))]
	if !ok {
		return Technique{}, fmt.Errorf("dls: unknown technique %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return t, nil
}

// All returns every registered technique sorted by name.
func All() []Technique {
	out := make([]Technique, 0, len(registry))
	for _, t := range registry {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the names of all registered techniques, sorted.
func Names() []string {
	ts := All()
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name
	}
	return names
}

// PaperRobustSet returns the paper's Stage-II robust technique set
// {FAC, WF, AWF-B, AF}, in paper order.
func PaperRobustSet() []Technique {
	names := []string{"FAC", "WF", "AWF-B", "AF"}
	out := make([]Technique, len(names))
	for i, n := range names {
		t, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out[i] = t
	}
	return out
}

// clampChunk bounds a proposed chunk size to [1, remaining].
func clampChunk(k, remaining int) int {
	if remaining <= 0 {
		return 0
	}
	if k < 1 {
		k = 1
	}
	if k > remaining {
		k = remaining
	}
	return k
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }
