package sim

import (
	"context"
	"reflect"
	"testing"

	"cdsf/internal/availability"
	"cdsf/internal/metrics"
	"cdsf/internal/pmf"
	"cdsf/internal/stats"
)

func replCfg(t *testing.T) Config {
	t.Helper()
	return Config{
		SerialIters:   5,
		ParallelIters: 400,
		Workers:       4,
		IterTime:      stats.NewNormal(1, 0.3),
		Avail:         availability.Static{PMF: pmf.Point(0.8)},
		Technique:     tech(t, "FAC"),
		Overhead:      0.05,
		Seed:          42,
	}
}

// TestEmptySampleZeroValues pins the documented zero-value behaviour of
// an empty Sample: no NaN, no panic.
func TestEmptySampleZeroValues(t *testing.T) {
	s := &Sample{}
	if got := s.Mean(); got != 0 {
		t.Errorf("empty Mean = %v", got)
	}
	if got := s.StdDev(); got != 0 {
		t.Errorf("empty StdDev = %v", got)
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v", got)
	}
	if got := s.PrLE(100); got != 0 {
		t.Errorf("empty PrLE = %v", got)
	}
}

// TestQuantileCache checks that the cached sort order tracks appends
// and that Quantile/PrLE answer over the current makespans.
func TestQuantileCache(t *testing.T) {
	s := &Sample{Makespans: []float64{3, 1, 2}}
	if got, want := s.Quantile(0.5), 2.0; got != want {
		t.Errorf("median = %v, want %v", got, want)
	}
	if got := s.PrLE(2); got != 2.0/3.0 {
		t.Errorf("PrLE(2) = %v", got)
	}
	// Makespans must not be reordered by the cache.
	if !reflect.DeepEqual(s.Makespans, []float64{3, 1, 2}) {
		t.Errorf("Makespans mutated: %v", s.Makespans)
	}

	// Appending changes the length, which rebuilds the cache.
	s.Makespans = append(s.Makespans, 0)
	if got, want := s.Quantile(0), 0.0; got != want {
		t.Errorf("min after append = %v, want %v", got, want)
	}
}

// TestAppendInvalidatesAfterTruncateRefill is the regression test for
// the stale-cache footgun: a truncate followed by refilling to the SAME
// length defeats the length-change heuristic, so quantiles silently
// answered over the old values. Append invalidates internally, which
// makes the pattern safe; this test fails against the pre-Append code
// (where the refill had to go through a direct append).
func TestAppendInvalidatesAfterTruncateRefill(t *testing.T) {
	s := &Sample{}
	s.Append(100, 200, 300)
	// Warm the sort cache over the original values.
	if got := s.Quantile(1); got != 300 {
		t.Fatalf("max = %v", got)
	}
	// Truncate and refill to the same length through Append.
	s.Makespans = s.Makespans[:0]
	s.Append(1, 2, 3)
	if got := s.Quantile(1); got != 3 {
		t.Errorf("max after truncate+refill = %v, want 3 (stale cache)", got)
	}
	if got := s.PrLE(150); got != 1 {
		t.Errorf("PrLE(150) after truncate+refill = %v, want 1 (stale cache)", got)
	}
	// Same hazard, same length, new high outlier: Quantile must see it.
	s.Makespans = s.Makespans[:0]
	s.Append(7, 8, 9000)
	if got := s.Quantile(0.5); got != 8 {
		t.Errorf("median after second refill = %v, want 8", got)
	}
}

// TestMetricsDoNotPerturbResults is the determinism gate: the same
// seeded configuration must produce bit-identical makespans with
// metrics enabled and disabled.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	cfg := replCfg(t)
	const reps = 20

	off, err := RunManyContext(context.Background(), cfg, reps)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cfg.Obs.Metrics = reg
	on, err := RunManyContext(context.Background(), cfg, reps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(off.Makespans, on.Makespans) {
		t.Errorf("metrics changed seeded results:\n%v\nvs\n%v", off.Makespans, on.Makespans)
	}

	// And the registry actually observed the runs.
	if got := reg.Counter("sim.runs").Value(); got != reps {
		t.Errorf("sim.runs = %d, want %d", got, reps)
	}
	if got := reg.Counter("sim.replications").Value(); got != reps {
		t.Errorf("sim.replications = %d, want %d", got, reps)
	}
	if reg.Counter("sim.events").Value() == 0 || reg.Counter("sim.chunks").Value() == 0 {
		t.Error("event/chunk counters not populated")
	}
	if reg.Counter("sim.heap_ops").Value() < reg.Counter("sim.events").Value() {
		t.Error("heap ops should dominate events")
	}
	if reg.Timer("sim.run_wall").Count() != reps {
		t.Errorf("run_wall count = %d, want %d", reg.Timer("sim.run_wall").Count(), reps)
	}
	if reg.Histogram("sim.worker_utilization", nil).Count() != reps*int64(cfg.Workers) {
		t.Error("worker utilization histogram incomplete")
	}
}
