package dls

import (
	"math"
)

// This file implements the non-adaptive, deterministic chunk rules:
// STATIC, SS, FSC, and TSS.

func init() {
	register(Technique{Name: "STATIC", New: newStatic})
	register(Technique{Name: "SS", New: newSS})
	register(Technique{Name: "FSC", New: newFSC})
	register(Technique{Name: "TSS", New: newTSS})
}

// static implements straightforward parallelization: each worker
// receives one chunk of ceil(N/P) iterations (the paper's naive RAS
// policy, "STATIC").
type static struct {
	remaining int
	chunk     int
	served    []bool
}

func newStatic(s Setup) (Scheduler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &static{
		remaining: s.Iterations,
		chunk:     ceilDiv(s.Iterations, s.Workers),
		served:    make([]bool, s.Workers),
	}, nil
}

func (st *static) Remaining() int { return st.remaining }

func (st *static) Next(w int) int {
	if st.served[w] {
		// Each worker gets exactly one share; an early finisher cannot
		// steal under STATIC — that is precisely its non-robustness.
		return 0
	}
	st.served[w] = true
	k := clampChunk(st.chunk, st.remaining)
	st.remaining -= k
	return k
}

func (st *static) Report(int, int, float64) {}

// ss implements pure self-scheduling: one iteration per request.
// Perfect balance, maximal overhead.
type ss struct {
	remaining int
}

func newSS(s Setup) (Scheduler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &ss{remaining: s.Iterations}, nil
}

func (s *ss) Remaining() int { return s.remaining }

func (s *ss) Next(int) int {
	k := clampChunk(1, s.remaining)
	s.remaining -= k
	return k
}

func (s *ss) Report(int, int, float64) {}

// fsc implements fixed-size chunking (Kruskal & Weiss): the optimal
// fixed chunk size balancing overhead against imbalance,
//
//	k = (sqrt(2)*N*h / (sigma*P*sqrt(ln P)))^(2/3)
//
// computed from the a-priori iteration standard deviation sigma and the
// scheduling overhead h. With sigma or h unknown (zero), it degrades to
// N/(2P), a common practical fallback.
type fsc struct {
	remaining int
	chunk     int
}

func newFSC(s Setup) (Scheduler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	n, p := float64(s.Iterations), float64(s.Workers)
	chunk := 0
	if s.IterStdDev > 0 && s.Overhead > 0 && s.Workers > 1 {
		k := math.Pow(math.Sqrt2*n*s.Overhead/(s.IterStdDev*p*math.Sqrt(math.Log(p))), 2.0/3.0)
		chunk = int(math.Ceil(k))
	} else {
		chunk = ceilDiv(s.Iterations, 2*s.Workers)
	}
	if chunk < 1 {
		chunk = 1
	}
	return &fsc{remaining: s.Iterations, chunk: chunk}, nil
}

func (f *fsc) Remaining() int { return f.remaining }

func (f *fsc) Next(int) int {
	k := clampChunk(f.chunk, f.remaining)
	f.remaining -= k
	return k
}

func (f *fsc) Report(int, int, float64) {}

// tss implements trapezoid self-scheduling (Tzen & Ni): chunk sizes
// decrease linearly from f = N/(2P) to l = 1 in steps of
// (f-l)/(C-1), with C = ceil(2N/(f+l)) chunks in total.
type tss struct {
	remaining int
	next      float64
	delta     float64
}

func newTSS(s Setup) (Scheduler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	first := float64(s.Iterations) / float64(2*s.Workers)
	if first < 1 {
		first = 1
	}
	const last = 1.0
	c := math.Ceil(2 * float64(s.Iterations) / (first + last))
	delta := 0.0
	if c > 1 {
		delta = (first - last) / (c - 1)
	}
	return &tss{remaining: s.Iterations, next: first, delta: delta}, nil
}

func (t *tss) Remaining() int { return t.remaining }

func (t *tss) Next(int) int {
	k := clampChunk(int(math.Round(t.next)), t.remaining)
	t.remaining -= k
	t.next -= t.delta
	if t.next < 1 {
		t.next = 1
	}
	return k
}

func (t *tss) Report(int, int, float64) {}
