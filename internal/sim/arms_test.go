package sim

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"

	"cdsf/internal/availability"
	"cdsf/internal/dls"
	"cdsf/internal/metrics"
	"cdsf/internal/pmf"
	"cdsf/internal/stats"
	"cdsf/internal/tracing"
)

// sampleBits is a Sample's outputs as bits: every makespan, then
// MeanChunks and MeanImbalance.
func sampleBits(s *Sample) []uint64 {
	out := make([]uint64, 0, len(s.Makespans)+2)
	for _, m := range s.Makespans {
		out = append(out, math.Float64bits(m))
	}
	return append(out, math.Float64bits(s.MeanChunks), math.Float64bits(s.MeanImbalance))
}

// TestArmsMatchRunMany pins RunArmsContext to the one-technique
// path: each arm's Sample is bit-identical to RunManyContext with the
// arm's technique, releases and scope on the same config and seed. It
// covers every registered technique on the Static, Redraw, Markov and
// SharedLoad models, with and without an iteration profile,
// single- and three-sweep runs, and per-technique release vectors.
func TestArmsMatchRunMany(t *testing.T) {
	load := pmf.MustNew([]pmf.Pulse{{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1, Prob: 0.5}})
	models := []struct {
		name string
		mk   func() availability.Model
	}{
		{"static", func() availability.Model { return availability.Static{PMF: load} }},
		{"redraw", func() availability.Model { return availability.Redraw{PMF: load, Interval: 25} }},
		{"markov", func() availability.Model {
			return availability.Markov{PMF: load, Interval: 25, Persistence: 0.5}
		}},
		{"sharedload", func() availability.Model {
			return &availability.SharedLoad{Shared: load, Idio: load, Mix: 0.5, Interval: 25, Persistence: 0.5}
		}},
	}
	const reps = 6
	techs := dls.All()
	for _, m := range models {
		for _, prof := range []Profile{nil, PeakedProfile} {
			for _, steps := range []int{1, 3} {
				for _, gated := range []bool{false, true} {
					cfg := Config{
						SerialIters:      12,
						ParallelIters:    240,
						Workers:          4,
						IterTime:         stats.NewNormal(1, 0.3),
						IterProfile:      prof,
						Avail:            m.mk(),
						Overhead:         0.5,
						TimeSteps:        steps,
						WeightsFromAvail: true,
						BestMaster:       true,
						Seed:             99,
					}
					arms := make([]Arm, len(techs))
					for ti, tc := range techs {
						arms[ti] = Arm{Technique: tc, TraceScope: tc.Name}
						if gated {
							// Each technique's predecessors finished at
							// their own times.
							arms[ti].Releases = make([]float64, reps)
							for r := range arms[ti].Releases {
								arms[ti].Releases[r] = float64(ti*7+r*3) + 0.5
							}
						}
					}
					got, err := RunArmsContext(context.Background(), cfg, arms, reps)
					if err != nil {
						t.Fatal(err)
					}
					for ti, a := range arms {
						c := cfg
						c.Technique, c.Releases, c.TraceScope = a.Technique, a.Releases, a.TraceScope
						want, err := RunManyContext(context.Background(), c, reps)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(sampleBits(got[ti]), sampleBits(want)) {
							t.Fatalf("%s profile=%v steps=%d gated=%v %s: RunArmsContext %v/%v/%v, RunManyContext %v/%v/%v",
								m.name, prof != nil, steps, gated, a.Technique.Name,
								got[ti].Makespans, got[ti].MeanChunks, got[ti].MeanImbalance,
								want.Makespans, want.MeanChunks, want.MeanImbalance)
						}
					}
				}
			}
		}
	}
}

// TestArmsShareDraws pins the common random numbers themselves: two
// arms of one technique are identical, so every difference between
// arms comes from the techniques, and the totals reach the registry
// and the progress board once per (arm, repetition).
func TestArmsShareDraws(t *testing.T) {
	cfg := replCfg(t)
	cfg.Obs = tracing.Scope{Metrics: metrics.NewRegistry(), Progress: tracing.NewProgress()}
	fac := tech(t, "FAC")
	got, err := RunArmsContext(context.Background(), cfg, []Arm{{Technique: fac}, {Technique: fac}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sampleBits(got[0]), sampleBits(got[1])) {
		t.Errorf("two arms of one technique differ: %v vs %v", got[0].Makespans, got[1].Makespans)
	}
	if n := cfg.Obs.Metrics.Counter("sim.replications").Value(); n != 16 {
		t.Errorf("sim.replications = %d, want 16", n)
	}
	if p := cfg.Obs.Progress.Snapshot().Replications; p != (tracing.Counts{Done: 16, Planned: 16}) {
		t.Errorf("replication progress %+v, want 16/16", p)
	}
	if _, err := RunArmsContext(context.Background(), cfg, nil, 8); err == nil {
		t.Error("no arms accepted")
	}
	short := []Arm{{Technique: fac, Releases: []float64{1}}}
	if _, err := RunArmsContext(context.Background(), cfg, short, 8); err == nil {
		t.Error("a release vector shorter than the repetitions accepted")
	}
	if _, err := RunArmsContext(context.Background(), cfg, []Arm{{}}, 8); err == nil {
		t.Error("an arm without a technique accepted")
	}
}

// TestArmsLargeRunsDrawInPlace pins the memory bound on client-sized
// instances: a run of more than maxSharedCosts iterations (over all
// sweeps) gets no shared cost vector, so RunArmsContext allocates well
// under what the vector would take, and every arm still matches
// RunManyContext bit for bit.
func TestArmsLargeRunsDrawInPlace(t *testing.T) {
	load := pmf.MustNew([]pmf.Pulse{{Value: 0.5, Prob: 0.5}, {Value: 1, Prob: 0.5}})
	arms := []Arm{{Technique: tech(t, "FAC")}, {Technique: tech(t, "STATIC")}}
	for _, size := range []struct{ parallel, steps int }{
		{2 * maxSharedCosts, 1},
		{maxSharedCosts / 2, 3},
	} {
		cfg := Config{
			SerialIters:   16,
			ParallelIters: size.parallel,
			Workers:       4,
			IterTime:      stats.NewNormal(1, 0.3),
			Avail:         availability.Static{PMF: load},
			TimeSteps:     size.steps,
			Seed:          5,
		}
		vector := 8 * size.steps * (cfg.SerialIters + cfg.ParallelIters)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := RunArmsContext(context.Background(), cfg, arms, 1)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(vector)/2 {
			t.Errorf("%d×%d iterations: RunArmsContext allocated %d bytes, a shared cost vector is %d", size.steps, size.parallel, alloc, vector)
		}
		for ai, a := range arms {
			c := cfg
			c.Technique = a.Technique
			want, err := RunManyContext(context.Background(), c, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sampleBits(got[ai]), sampleBits(want)) {
				t.Errorf("%d×%d iterations, %s: RunArmsContext %v, RunManyContext %v", size.steps, size.parallel, a.Technique.Name, got[ai].Makespans, want.Makespans)
			}
		}
	}
}
