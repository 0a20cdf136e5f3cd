package sim

import (
	"context"
	"reflect"
	"testing"

	"cdsf/internal/metrics"
	"cdsf/internal/rng"
	"cdsf/internal/tracing"
)

// A wired tracer must not perturb the simulation: same seed, same
// Result, and the internal chunk collection it forces must not leak
// into the caller's Result.
func TestTracerDoesNotPerturbResults(t *testing.T) {
	cfg := baseConfig(t, "FAC")
	plain, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	traced := cfg
	traced.Obs.Tracer = tracing.New()
	traced.TraceScope = "fac"
	got, err := RunContext(context.Background(), traced)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Errorf("tracing changed the result:\nplain  %+v\ntraced %+v", plain, got)
	}
	if got.Chunks != nil {
		t.Error("tracer leaked chunk collection into the result")
	}
	if traced.Obs.Tracer.Len() == 0 {
		t.Error("no spans recorded")
	}

	// When the caller asks for chunks, tracing must keep them.
	traced.CollectChunks = true
	withChunks, err := RunContext(context.Background(), traced)
	if err != nil {
		t.Fatal(err)
	}
	if len(withChunks.Chunks) == 0 {
		t.Error("CollectChunks dropped under tracing")
	}
}

func TestRunSpanAccounting(t *testing.T) {
	cfg := baseConfig(t, "FAC")
	cfg.Obs.Tracer = tracing.New()
	cfg.TraceScope = "fac"
	cfg.CollectChunks = true
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild the expected per-lane sums straight from the chunk log.
	busy := map[int]float64{}
	overheadSum := map[int]float64{}
	for _, c := range res.Chunks {
		busy[c.Worker] += c.Elapsed
		overheadSum[c.Worker] += cfg.Overhead
	}

	gotBusy := map[string]float64{}
	gotOverhead := map[string]float64{}
	serial := 0.0
	for _, s := range cfg.Obs.Tracer.Spans() {
		if s.Clock != tracing.Sim {
			t.Fatalf("sim run emitted wall span %+v", s)
		}
		switch s.Cat {
		case "busy":
			gotBusy[s.Lane] += s.Dur
		case "overhead":
			gotOverhead[s.Lane] += s.Dur
		case "serial":
			serial += s.Dur
		}
	}
	if serial != res.SerialTime {
		t.Errorf("serial span = %v, want %v", serial, res.SerialTime)
	}
	for w, want := range busy {
		lane := "fac/w0" + string(rune('0'+w))
		if gotBusy[lane] != want {
			t.Errorf("%s busy = %v, want %v", lane, gotBusy[lane], want)
		}
		if gotOverhead[lane] != overheadSum[w] {
			t.Errorf("%s overhead = %v, want %v", lane, gotOverhead[lane], overheadSum[w])
		}
	}
}

// RunMany traces one representative repetition, not all of them: a
// batch must record exactly the spans of a single run, while the
// scope's registry and progress board still see every repetition.
func TestRunManyTracesFirstRepOnly(t *testing.T) {
	cfg := baseConfig(t, "FAC")
	cfg.Obs.Tracer = tracing.New()
	// RunMany derives rep i's seed from cfg.Seed; reproduce rep 0 here.
	single := cfg
	single.Seed = rng.New(cfg.Seed).Uint64()
	rep0, err := RunContext(context.Background(), single)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Obs.Tracer.Len()
	if want == 0 {
		t.Fatal("single run recorded nothing")
	}

	const reps = 5
	cfg.Obs = tracing.Scope{Metrics: metrics.NewRegistry(), Tracer: tracing.New(), Progress: tracing.NewProgress()}
	s, err := RunManyContext(context.Background(), cfg, reps)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Obs.Tracer.Len(); got != want {
		t.Errorf("RunMany recorded %d spans, want %d (one rep)", got, want)
	}
	if s.Makespans[0] != rep0.Makespan {
		t.Errorf("rep 0 makespan %v != single run %v", s.Makespans[0], rep0.Makespan)
	}
	if got := cfg.Obs.Metrics.Counter("sim.runs").Value(); got != reps {
		t.Errorf("sim.runs = %d, want %d", got, reps)
	}
	if got := cfg.Obs.Progress.Snapshot().Replications; got != (tracing.Counts{Done: reps, Planned: reps}) {
		t.Errorf("replications = %+v, want %d/%d", got, reps, reps)
	}
}
