package dls

import (
	"fmt"
)

// This file provides the static analysis of a technique's dispatch
// schedule: the chunk sizes it would issue on an ideal homogeneous
// system where every chunk takes time proportional to its size. The
// analysis needs no simulator and yields the classic technique
// comparison quantities — chunk count (scheduling overhead events),
// first/last chunk sizes, and the overhead-to-work ratio at a given h.
// Adaptive techniques are analyzed at their a-priori behaviour (all
// workers reporting equal speeds), which equals their first-batch
// schedule.

// ScheduleEntry is one dispatched chunk of the analyzed schedule.
type ScheduleEntry struct {
	Worker int
	Size   int
}

// ScheduleAnalysis summarizes a technique's dispatch schedule.
type ScheduleAnalysis struct {
	Technique string
	// Entries is the full dispatch order under round-robin idealized
	// execution (each worker finishes chunks in proportion to size).
	Entries []ScheduleEntry
	// Chunks is len(Entries).
	Chunks int
	// FirstChunk and LastChunk are the first and final chunk sizes.
	FirstChunk, LastChunk int
	// MeanChunk is Iterations / Chunks.
	MeanChunk float64
	// OverheadRatio is Chunks*h / (Iterations*iterMean): the fraction
	// of useful work spent on dispatch at overhead h.
	OverheadRatio float64
}

// AnalyzeSchedule drives a fresh scheduler on an idealized homogeneous
// system: all workers identical, every iteration costing iterMean, so
// workers request chunks in an order determined only by accumulated
// work. It returns the resulting schedule statistics. The scheduler is
// set up with the a-priori iteration standard deviation iterStdDev, as
// the simulator sets it up (FSC sizes its chunks from it), while its
// measurements are fed back with exact proportional times, so adaptive
// techniques behave as with perfect equal estimates.
func AnalyzeSchedule(tech Technique, iterations, workers int, overhead, iterMean, iterStdDev float64) (*ScheduleAnalysis, error) {
	if iterMean <= 0 {
		return nil, fmt.Errorf("dls: non-positive iterMean %v", iterMean)
	}
	s, err := tech.New(Setup{
		Iterations: iterations,
		Workers:    workers,
		Overhead:   overhead,
		IterMean:   iterMean,
		IterStdDev: iterStdDev,
	})
	if err != nil {
		return nil, err
	}
	a := &ScheduleAnalysis{Technique: tech.Name}
	// Idealized event loop: the worker with the least accumulated time
	// requests next.
	busy := make([]float64, workers)
	done := make([]bool, workers)
	active := workers
	guard := 0
	for active > 0 {
		// Pick the least-busy active worker.
		w := -1
		for i := 0; i < workers; i++ {
			if done[i] {
				continue
			}
			if w < 0 || busy[i] < busy[w] {
				w = i
			}
		}
		k := s.Next(w)
		if k == 0 {
			done[w] = true
			active--
			continue
		}
		elapsed := float64(k) * iterMean
		s.Report(w, k, elapsed)
		busy[w] += elapsed + overhead
		a.Entries = append(a.Entries, ScheduleEntry{Worker: w, Size: k})
		if guard++; guard > 10_000_000 {
			return nil, fmt.Errorf("dls: %s schedule did not terminate", tech.Name)
		}
	}
	a.Chunks = len(a.Entries)
	if a.Chunks == 0 {
		return nil, fmt.Errorf("dls: %s dispatched no chunks", tech.Name)
	}
	a.FirstChunk = a.Entries[0].Size
	a.LastChunk = a.Entries[a.Chunks-1].Size
	a.MeanChunk = float64(iterations) / float64(a.Chunks)
	a.OverheadRatio = float64(a.Chunks) * overhead / (float64(iterations) * iterMean)
	return a, nil
}

// CompareSchedules analyzes every given technique on the same loop and
// returns the results in input order.
func CompareSchedules(techs []Technique, iterations, workers int, overhead, iterMean, iterStdDev float64) ([]*ScheduleAnalysis, error) {
	out := make([]*ScheduleAnalysis, len(techs))
	for i, tech := range techs {
		a, err := AnalyzeSchedule(tech, iterations, workers, overhead, iterMean, iterStdDev)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}
