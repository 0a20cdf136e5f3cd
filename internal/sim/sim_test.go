package sim

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"cdsf/internal/availability"
	"cdsf/internal/dls"
	"cdsf/internal/pmf"
	"cdsf/internal/rng"
	"cdsf/internal/stats"
)

func tech(t testing.TB, name string) dls.Technique {
	t.Helper()
	tc, err := dls.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// streams returns a run seed's two rng streams, as a run seeds them:
// the availability processes draw from the first, the iteration costs
// from the second.
func streams(seed uint64) (avail, work *rng.Source) {
	avail, work = new(rng.Source), new(rng.Source)
	seedStreams(seed, avail, work)
	return avail, work
}

func baseConfig(t testing.TB, techName string) Config {
	return Config{
		SerialIters:   50,
		ParallelIters: 1000,
		Workers:       4,
		IterTime:      stats.NewNormal(1, 0.2),
		Avail:         availability.Static{PMF: pmf.Point(1)},
		Technique:     tech(t, techName),
		Overhead:      0.5,
		Seed:          1,
	}
}

func TestRunDeterministicBySeed(t *testing.T) {
	cfg := baseConfig(t, "FAC")
	a, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.NumChunks != b.NumChunks {
		t.Errorf("same seed diverged: %v/%d vs %v/%d",
			a.Makespan, a.NumChunks, b.Makespan, b.NumChunks)
	}
	cfg.Seed = 2
	c, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Makespan == a.Makespan {
		t.Error("different seeds produced identical makespans")
	}
}

func TestIterationConservation(t *testing.T) {
	for _, name := range dls.Names() {
		cfg := baseConfig(t, name)
		r, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total := 0
		for _, k := range r.WorkerIters {
			total += k
		}
		if total != cfg.ParallelIters {
			t.Errorf("%s executed %d of %d iterations", name, total, cfg.ParallelIters)
		}
	}
}

func TestMakespanAboveIdealBound(t *testing.T) {
	cfg := baseConfig(t, "AF")
	r, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fully available workers: serial ~50, parallel >= 1000/4 = 250 in
	// expectation; allow slack for stochastic iteration times but the
	// makespan cannot be below half the deterministic bound.
	ideal := 50.0 + 1000.0/4
	if r.Makespan < ideal*0.5 {
		t.Errorf("makespan %v below plausible bound %v", r.Makespan, ideal)
	}
	if r.SerialTime <= 0 {
		t.Errorf("serial time %v", r.SerialTime)
	}
	if r.ParallelTime <= 0 {
		t.Errorf("parallel time %v", r.ParallelTime)
	}
	if math.Abs(r.SerialTime+r.ParallelTime-r.Makespan) > 1e-9 {
		t.Error("serial + parallel != makespan")
	}
}

func TestNoSerialPhase(t *testing.T) {
	cfg := baseConfig(t, "FAC")
	cfg.SerialIters = 0
	r, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.SerialTime != 0 {
		t.Errorf("serial time %v with no serial iterations", r.SerialTime)
	}
}

func TestChunkLogConsistency(t *testing.T) {
	cfg := baseConfig(t, "TSS")
	cfg.CollectChunks = true
	r, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Chunks) != r.NumChunks {
		t.Fatalf("chunk log %d != NumChunks %d", len(r.Chunks), r.NumChunks)
	}
	total := 0
	for _, c := range r.Chunks {
		if c.Size <= 0 || c.Elapsed <= 0 || c.Start < 0 {
			t.Fatalf("bad chunk record %+v", c)
		}
		total += c.Size
	}
	if total != cfg.ParallelIters {
		t.Errorf("chunk log sums to %d", total)
	}
}

func TestLowAvailabilityStretchesMakespan(t *testing.T) {
	full := baseConfig(t, "FAC")
	rFull, err := RunContext(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	half := full
	half.Avail = availability.Static{PMF: pmf.Point(0.5)}
	rHalf, err := RunContext(context.Background(), half)
	if err != nil {
		t.Fatal(err)
	}
	ratio := rHalf.Makespan / rFull.Makespan
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("half availability scaled makespan by %.2f, want ~2", ratio)
	}
}

func TestAdaptiveBeatsStaticUnderHeterogeneity(t *testing.T) {
	// Two of four workers at 25% availability, persistent for the run:
	// STATIC is dominated by the slow workers' fixed half of the work,
	// while AF migrates iterations to the fast ones.
	avail := pmf.MustNew([]pmf.Pulse{{Value: 0.25, Prob: 0.5}, {Value: 1, Prob: 0.5}})
	mk := func(name string) float64 {
		cfg := Config{
			ParallelIters: 2000,
			Workers:       4,
			IterTime:      stats.NewNormal(1, 0.1),
			Avail:         availability.Static{PMF: avail},
			Technique:     tech(t, name),
			Overhead:      0.5,
			Seed:          9,
		}
		s, err := RunManyContext(context.Background(), cfg, 20)
		if err != nil {
			t.Fatal(err)
		}
		return s.Mean()
	}
	static := mk("STATIC")
	af := mk("AF")
	if af >= static {
		t.Errorf("AF mean %v not better than STATIC %v under heterogeneity", af, static)
	}
	if static/af < 1.3 {
		t.Errorf("AF advantage only %.2fx, expected substantial", static/af)
	}
}

func TestOverheadMonotone(t *testing.T) {
	cheap := baseConfig(t, "SS")
	cheap.Overhead = 0
	expensive := cheap
	expensive.Overhead = 2
	rc, err := RunContext(context.Background(), cheap)
	if err != nil {
		t.Fatal(err)
	}
	re, err := RunContext(context.Background(), expensive)
	if err != nil {
		t.Fatal(err)
	}
	// SS dispatches one chunk per iteration: overhead 2 adds ~2*1000/4
	// per worker.
	if re.Makespan <= rc.Makespan {
		t.Errorf("overhead did not increase makespan: %v vs %v", re.Makespan, rc.Makespan)
	}
}

func TestBestMasterImprovesSerialPhase(t *testing.T) {
	avail := pmf.MustNew([]pmf.Pulse{{Value: 0.1, Prob: 0.5}, {Value: 1, Prob: 0.5}})
	sum := func(best bool) float64 {
		total := 0.0
		for seed := uint64(0); seed < 30; seed++ {
			cfg := baseConfig(t, "FAC")
			cfg.Avail = availability.Static{PMF: avail}
			cfg.BestMaster = best
			cfg.Seed = seed
			r, err := RunContext(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			total += r.SerialTime
		}
		return total
	}
	if w0, bm := sum(false), sum(true); bm >= w0 {
		t.Errorf("BestMaster serial total %v >= worker-0 total %v", bm, w0)
	}
}

func TestWeightsFromAvail(t *testing.T) {
	// With WF and availability-derived weights under static draws, the
	// iteration distribution should track worker availability.
	avail := pmf.MustNew([]pmf.Pulse{{Value: 0.2, Prob: 0.5}, {Value: 1, Prob: 0.5}})
	cfg := Config{
		ParallelIters:    4000,
		Workers:          4,
		IterTime:         stats.NewNormal(1, 0.1),
		Avail:            availability.Static{PMF: avail},
		Technique:        tech(t, "WF"),
		WeightsFromAvail: true,
		Seed:             4,
		CollectChunks:    true,
	}
	r, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Imbalance > 0.35 {
		t.Errorf("WF with availability weights left imbalance %.2f", r.Imbalance)
	}
}

func TestValidation(t *testing.T) {
	good := baseConfig(t, "FAC")
	bads := []func(*Config){
		func(c *Config) { c.ParallelIters = 0 },
		func(c *Config) { c.SerialIters = -1 },
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.IterTime = nil },
		func(c *Config) { c.Avail = nil },
		func(c *Config) { c.Technique = dls.Technique{} },
		func(c *Config) { c.Overhead = -1 },
	}
	for i, mod := range bads {
		cfg := good
		mod(&cfg)
		if _, err := RunContext(context.Background(), cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRunMany(t *testing.T) {
	cfg := baseConfig(t, "FAC")
	s, err := RunManyContext(context.Background(), cfg, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Makespans) != 25 {
		t.Fatalf("got %d makespans", len(s.Makespans))
	}
	if s.Mean() <= 0 || s.StdDev() < 0 {
		t.Error("bad sample stats")
	}
	if pr := s.PrLE(s.Quantile(0.5)); pr < 0.4 || pr > 0.7 {
		t.Errorf("PrLE(median) = %v", pr)
	}
	if _, err := RunManyContext(context.Background(), cfg, 0); err == nil {
		t.Error("zero reps accepted")
	}
	// Deterministic: same base seed, same sample.
	s2, err := RunManyContext(context.Background(), cfg, 25)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Makespans {
		if s.Makespans[i] != s2.Makespans[i] {
			t.Fatal("RunMany not deterministic")
		}
	}
}

// TestQuickSimInvariants property-checks core invariants across random
// configurations: all iterations execute, makespan bounds hold.
func TestQuickSimInvariants(t *testing.T) {
	techs := dls.All()
	f := func(seed uint64, nRaw uint16, pRaw, techRaw uint8) bool {
		n := int(nRaw)%3000 + 1
		p := int(pRaw)%8 + 1
		cfg := Config{
			ParallelIters: n,
			Workers:       p,
			IterTime:      stats.NewNormal(1, 0.3),
			Avail: availability.Markov{
				PMF: pmf.MustNew([]pmf.Pulse{
					{Value: 0.5, Prob: 0.5}, {Value: 1, Prob: 0.5}}),
				Interval: 50, Persistence: 0.5,
			},
			Technique: techs[int(techRaw)%len(techs)],
			Overhead:  0.1,
			Seed:      seed,
		}
		r, err := RunContext(context.Background(), cfg)
		if err != nil {
			return false
		}
		total := 0
		for _, k := range r.WorkerIters {
			total += k
		}
		// All iterations executed; makespan at least the dedicated
		// serial path of the largest per-worker load is hard to bound
		// tightly, so check weak sanity bounds.
		return total == n && r.Makespan > 0 && r.Imbalance >= 0 && r.Imbalance <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBlackoutFailureInjection stresses the techniques with random full
// outages: the run must still complete every iteration, and adaptive
// chunking must beat STATIC by a wide margin when workers black out for
// whole epochs.
func TestBlackoutFailureInjection(t *testing.T) {
	base := availability.Blackout{
		Base:     availability.Static{PMF: pmf.Point(1)},
		Prob:     0.2,
		Interval: 100,
	}
	mk := func(name string) float64 {
		s, err := RunManyContext(context.Background(), Config{
			ParallelIters: 2000,
			Workers:       4,
			IterTime:      stats.NewNormal(1, 0.2),
			Avail:         base,
			Technique:     tech(t, name),
			Overhead:      0.5,
			Seed:          13,
		}, 20)
		if err != nil {
			t.Fatal(err)
		}
		return s.Mean()
	}
	static := mk("STATIC")
	af := mk("AF")
	fac := mk("FAC")
	if af >= static || fac >= static {
		t.Errorf("outages did not favour dynamic scheduling: STATIC %v, FAC %v, AF %v",
			static, fac, af)
	}
	// Conservation under failure injection.
	r, err := RunContext(context.Background(), Config{
		ParallelIters: 777,
		Workers:       3,
		IterTime:      stats.NewNormal(1, 0.2),
		Avail:         base,
		Technique:     tech(t, "AWF-C"),
		Seed:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, k := range r.WorkerIters {
		total += k
	}
	if total != 777 {
		t.Errorf("executed %d of 777 iterations under outages", total)
	}
}
