package experiments

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"cdsf/internal/metrics"
	"cdsf/internal/ra"
	"cdsf/internal/tracing"
)

func TestSyntheticInstanceValid(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		prob, err := SyntheticInstance(seed, 5, 8, 16, 1.3)
		if err != nil {
			t.Fatal(err)
		}
		if err := prob.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if prob.Deadline <= 0 {
			t.Fatalf("seed %d: deadline %v", seed, prob.Deadline)
		}
		// The deadline is slack times the calibration allocation's
		// expected makespan (the two-phase allocation computed with an
		// unconstrained deadline, exactly as SyntheticInstance does).
		calib := &ra.Problem{Sys: prob.Sys, Batch: prob.Batch, Deadline: 1e12}
		al, err := (ra.TwoPhaseGreedy{}).AllocateContext(context.Background(), calib)
		if err != nil {
			t.Fatal(err)
		}
		maxExp := 0.0
		for i := range prob.Batch {
			e := prob.Batch[i].CompletionPMF(al[i].Type, al[i].Procs,
				prob.Sys.Types[al[i].Type].Avail).Mean()
			if e > maxExp {
				maxExp = e
			}
		}
		if got := prob.Deadline / maxExp; got < 1.29 || got > 1.31 {
			t.Errorf("seed %d: deadline/makespan = %v, want the 1.3 slack", seed, got)
		}
	}
}

func TestScaleStudySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale study is slow")
	}
	cfg := DefaultScaleConfig(1)
	cfg.Instances = 4
	cfg.Sizes = [][3]int{{3, 4, 8}, {6, 8, 16}}
	cfg.Reps = 6
	tbl, err := RunScaleStudyContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	t.Logf("\n%s", out)

	// Sum the met-deadline column (last field) per quadrant across
	// sizes; the robust-robust quadrant must not lose to naive-naive.
	sumMet := func(name string) float64 {
		total := 0.0
		n := 0
		for _, line := range strings.Split(out, "\n") {
			if !strings.Contains(line, name) {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) < 2 {
				continue
			}
			met, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				continue
			}
			total += met
			n++
		}
		if n == 0 {
			t.Fatalf("quadrant %q not found:\n%s", name, out)
		}
		return total
	}
	nn := sumMet("naive IM + STATIC")
	rr := sumMet("robust IM + robust DLS")
	if rr < nn {
		t.Errorf("robust-robust met %v < naive-naive %v", rr, nn)
	}
}

// TestScaleStudyDeterministicAcrossWorkers checks that the parallel
// per-cell fan-out produces a byte-identical report for every worker
// count: each cell's seed is a pure function of the config, and the
// aggregation runs in the original order.
func TestScaleStudyDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("scale study is slow")
	}
	cfg := DefaultScaleConfig(7)
	cfg.Instances = 2
	cfg.Sizes = [][3]int{{3, 4, 8}}
	cfg.Reps = 3
	cfg.Workers = 1
	ref, err := RunScaleStudyContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{3, runtime.NumCPU()} {
		cfg.Workers = w
		tbl, err := RunScaleStudyContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if tbl.String() != ref.String() {
			t.Fatalf("workers=%d report differs from sequential:\n%s\n--- want ---\n%s", w, tbl, ref)
		}
	}
}

// Every cell of the scale and DAG studies is one single-case scenario
// and must be counted once on the progress board: planned scenarios =
// planned cases = cells, and planned replications = the cells' total
// Stage-II replications, all done when the study returns.
func TestStudiesCountEachCellOnce(t *testing.T) {
	scale := DefaultScaleConfig(3)
	scale.Instances = 1
	scale.Sizes = [][3]int{{3, 4, 8}}
	scale.Reps = 2
	dag := DefaultDAGStudyConfig(3)
	dag.Apps, dag.Type1, dag.Type2 = 4, 4, 8
	dag.Heuristics = []string{"greedy"}
	dag.Reps = 2
	for _, tc := range []struct {
		name  string
		cells int64
		// reps is the Stage-II replications of all cells: applications
		// x techniques x Reps per cell (one case each).
		reps int64
		run  func(tracing.Scope) error
	}{
		// Four quadrants on one instance: two STATIC quadrants of one
		// technique and two robust-DLS quadrants of four.
		{"scale", 4, 3 * (1 + 1 + 4 + 4) * 2, func(obs tracing.Scope) error {
			c := scale
			c.Obs = obs
			_, err := RunScaleStudyContext(context.Background(), c)
			return err
		}},
		// Four topologies x one heuristic, each simulated under the four
		// robust DLS techniques.
		{"dag", 4, 4 * (4 * 4 * 2), func(obs tracing.Scope) error {
			c := dag
			c.Obs = obs
			_, err := RunDAGStudyContext(context.Background(), c)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obs := tracing.Scope{Metrics: metrics.NewRegistry(), Progress: tracing.NewProgress()}
			if err := tc.run(obs); err != nil {
				t.Fatal(err)
			}
			want := tracing.ProgressSnapshot{
				Scenarios:    tracing.Counts{Done: tc.cells, Planned: tc.cells},
				Cases:        tracing.Counts{Done: tc.cells, Planned: tc.cells},
				Replications: tracing.Counts{Done: tc.reps, Planned: tc.reps},
			}
			if got := obs.Progress.Snapshot(); got != want {
				t.Errorf("progress = %+v, want %+v", got, want)
			}
			if got := obs.Metrics.Counter("sim.replications").Value(); got != tc.reps {
				t.Errorf("sim.replications = %d, want %d", got, tc.reps)
			}
			if obs.Metrics.Counter("ra.evaluations").Value() == 0 {
				t.Error("the study's Stage-I searches reported no evaluations")
			}
		})
	}
}
