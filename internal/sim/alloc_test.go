package sim

import (
	"context"
	"testing"

	"cdsf/internal/availability"
	"cdsf/internal/dls"
	"cdsf/internal/pmf"
	"cdsf/internal/stats"
)

// paperCell is the Stage-II cell of the paper's application 3 on its
// robust allocation (8 processors of type 2) under case 1 availability,
// as core's DefaultStageII runs it (BenchmarkStageIICell builds it from
// the paper instance): the robust technique set on shared draws of a
// truncated normal iteration time (mean 8000 time units over 4,320
// iterations, CV 0.3) and Markov availability at interval Δ/4
// (Δ = 3250).
func paperCell() (Config, []Arm) {
	load := pmf.MustNew([]pmf.Pulse{{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1, Prob: 0.5}})
	const mean = 8000.0 / 4320
	cfg := Config{
		SerialIters:      216,
		ParallelIters:    4104,
		Workers:          8,
		IterTime:         stats.Truncated{Dist: stats.NewNormal(mean, 0.3*mean), Lo: mean * 1e-3, Hi: mean * 1e3},
		Avail:            availability.NewMarkov(load, 3250.0/4, 0.5),
		Overhead:         1,
		WeightsFromAvail: true,
		BestMaster:       true,
		Seed:             3,
	}
	var arms []Arm
	for _, t := range dls.PaperRobustSet() {
		arms = append(arms, Arm{Technique: t})
	}
	return cfg, arms
}

// maxAllocsPerRep bounds what one repetition of paperCell allocates:
// its four schedulers (FAC 1, WF 2, AWF-B 4, AF 6 objects) and little
// else, so a run that allocates anything per worker again (8 workers,
// 4 arms) breaks it.
const maxAllocsPerRep = 16

// TestArmsAllocationsPerRepetition pins what a repetition allocates on
// one pool worker (AllocsPerRun sets GOMAXPROCS to 1): the difference
// between a cell of R and of 2R repetitions, over R, is the cost of a
// repetition once the cell's own buffers are paid for.
func TestArmsAllocationsPerRepetition(t *testing.T) {
	cfg, arms := paperCell()
	const reps = 8
	cell := func(n int) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, err := RunArmsContext(context.Background(), cfg, arms, n); err != nil {
				t.Fatal(err)
			}
		})
	}
	if perRep := (cell(2*reps) - cell(reps)) / reps; perRep > maxAllocsPerRep {
		t.Errorf("a repetition of the paper cell allocates %.1f objects, want at most %d", perRep, maxAllocsPerRep)
	} else {
		t.Logf("a repetition allocates %.1f objects", perRep)
	}
}
