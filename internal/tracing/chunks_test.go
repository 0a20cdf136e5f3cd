package tracing_test

import (
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cdsf/internal/availability"
	"cdsf/internal/dls"
	"cdsf/internal/metrics"
	"cdsf/internal/pmf"
	"cdsf/internal/sim"
	"cdsf/internal/stats"
	"cdsf/internal/tracing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func runWithChunks(t *testing.T, overhead float64) *sim.Result {
	t.Helper()
	fac, err := dls.ByName("FAC")
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.RunContext(context.Background(), sim.Config{
		ParallelIters: 500,
		Workers:       4,
		IterTime:      stats.NewNormal(1, 0.2),
		Avail:         availability.Static{PMF: pmf.Point(1)},
		Technique:     fac,
		Overhead:      overhead,
		Seed:          6,
		CollectChunks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestAnalyzeConservation(t *testing.T) {
	const h = 0.5
	r := runWithChunks(t, h)
	a, err := tracing.Analyze(r.Chunks, 4, h)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalIterations != 500 {
		t.Errorf("iterations = %d", a.TotalIterations)
	}
	if a.TotalChunks != r.NumChunks {
		t.Errorf("chunks = %d vs result %d", a.TotalChunks, r.NumChunks)
	}
	if math.Abs(a.MeanChunkSize-500/float64(r.NumChunks)) > 1e-9 {
		t.Errorf("mean chunk size = %v", a.MeanChunkSize)
	}
	sumIters, sumBusy := 0, 0.0
	for _, w := range a.Workers {
		sumIters += w.Iterations
		sumBusy += w.Busy
		if w.Busy < 0 || w.Idle < 0 || w.Overhead < 0 {
			t.Errorf("worker %d has negative accounting: %+v", w.Worker, w)
		}
		if math.Abs(w.Overhead-float64(w.Chunks)*h) > 1e-9 {
			t.Errorf("worker %d overhead = %v for %d chunks", w.Worker, w.Overhead, w.Chunks)
		}
		if w.LastEnd > r.Makespan+1e-9 {
			t.Errorf("worker %d ends after the makespan", w.Worker)
		}
	}
	if sumIters != 500 {
		t.Errorf("per-worker iterations sum to %d", sumIters)
	}
	resultBusy := 0.0
	for _, b := range r.WorkerBusy {
		resultBusy += b
	}
	if math.Abs(sumBusy-resultBusy) > 1e-9 {
		t.Errorf("busy sum %v != result %v", sumBusy, resultBusy)
	}
	if a.BusyEfficiency <= 0 || a.BusyEfficiency > 1+1e-9 {
		t.Errorf("efficiency = %v", a.BusyEfficiency)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := tracing.Analyze(nil, 4, 0); err == nil {
		t.Error("empty log accepted")
	}
	bad := []tracing.Chunk{{Worker: 7, Start: 0, Size: 1, Elapsed: 1}}
	if _, err := tracing.Analyze(bad, 4, 0); err == nil {
		t.Error("out-of-range worker accepted")
	}
	if _, err := tracing.Analyze(bad, 0, 0); err == nil {
		t.Error("zero workers accepted")
	}
}

func TestRecord(t *testing.T) {
	chunks := []tracing.Chunk{
		{Worker: 0, Start: 0, Size: 20, Elapsed: 4},
		{Worker: 1, Start: 5, Size: 10, Elapsed: 2.5},
		{Worker: 0, Start: 6, Size: 5, Elapsed: 1},
	}
	a, err := tracing.Analyze(chunks, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Nil registry must be a no-op, not a panic.
	a.Record(nil, "trace")

	reg := metrics.NewRegistry()
	a.Record(reg, "trace")
	if got := reg.Counter("trace.chunks").Value(); got != 3 {
		t.Errorf("trace.chunks = %d", got)
	}
	if got := reg.Counter("trace.iterations").Value(); got != 35 {
		t.Errorf("trace.iterations = %d", got)
	}
	if got := reg.Counter("trace.worker00.chunks").Value(); got != 2 {
		t.Errorf("worker00.chunks = %d", got)
	}
	if got := reg.Gauge("trace.worker00.busy").Value(); got != 5 {
		t.Errorf("worker00.busy = %v", got)
	}
	if got := reg.Gauge("trace.worker01.overhead").Value(); got != 0.5 {
		t.Errorf("worker01.overhead = %v", got)
	}
	if reg.Gauge("trace.busy_efficiency").Value() <= 0 {
		t.Error("busy_efficiency not recorded")
	}
}

// The worker lanes AddWorkerLanes emits for a real seeded chunk log sum,
// per worker and category, to exactly the busy/overhead/idle time
// Analyze reports for the same log (DESIGN §6).
func TestWorkerLanesMatchAnalyze(t *testing.T) {
	const h = 0.5
	r := runWithChunks(t, h)
	a, err := tracing.Analyze(r.Chunks, 4, h)
	if err != nil {
		t.Fatal(err)
	}
	tr := tracing.New()
	tr.AddWorkerLanes("fac", r.Chunks, h)

	sums := map[string]map[string]float64{}
	for _, s := range tr.Spans() {
		if sums[s.Lane] == nil {
			sums[s.Lane] = map[string]float64{}
		}
		sums[s.Lane][s.Cat] += s.Dur
	}
	for _, w := range a.Workers {
		lane := "fac/w0" + string(rune('0'+w.Worker))
		got := sums[lane]
		if math.Abs(got["busy"]-w.Busy) > 1e-9 ||
			math.Abs(got["overhead"]-w.Overhead) > 1e-9 ||
			math.Abs(got["idle"]-w.Idle) > 1e-9 {
			t.Errorf("%s = %v, want busy %v overhead %v idle %v",
				lane, got, w.Busy, w.Overhead, w.Idle)
		}
	}
}

// The ASCII Gantt built from a real seeded chunk log is pinned against
// a golden file, so rendering changes surface in review instead of
// silently shifting the dlssim -gantt output.
func TestBuildGanttGolden(t *testing.T) {
	const h = 0.5
	r := runWithChunks(t, h) // fixed seed 6 inside the helper
	g := tracing.BuildGantt("FAC: one run (seed 6)", r.Chunks, 4, h)
	out := g.String()

	golden := filepath.Join("testdata", "gantt.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("Gantt differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, out, want)
	}
}
