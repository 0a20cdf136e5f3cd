package core

import (
	"context"
	"testing"

	"cdsf/internal/dls"
	"cdsf/internal/ra"
	"cdsf/internal/sim"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
)

// exhaustiveAlloc returns the allocation exhaustive Stage I picks for
// f, the one the scenario runs below simulate.
func exhaustiveAlloc(t *testing.T, f *Framework) sysmodel.Allocation {
	t.Helper()
	alloc, err := ra.SolveContext(context.Background(), ra.Exhaustive{},
		&ra.Problem{Sys: f.Sys, Batch: f.Batch, Deadline: f.Deadline})
	if err != nil {
		t.Fatal(err)
	}
	return alloc
}

// cellConfig rebuilds the sim.Config runCase gives application i of
// case c under cfg, with the given technique and seed.
func cellConfig(f *Framework, alloc sysmodel.Allocation, c Case, cfg StageIIConfig, i int, seed uint64, tech dls.Technique) sim.Config {
	app := &f.Batch[i]
	as := alloc[i]
	iterMean := app.ExecTime[as.Type].Mean() / float64(app.TotalIters())
	return sim.Config{
		SerialIters:   app.SerialIters,
		ParallelIters: app.ParallelIters,
		Workers:       as.Procs,
		IterTime: stats.Truncated{
			Dist: stats.NewNormal(iterMean, cfg.IterCV*iterMean),
			Lo:   iterMean * 1e-3,
			Hi:   iterMean * 1e3,
		},
		Avail:            cfg.Model(c.Avail[as.Type]),
		Technique:        tech,
		Overhead:         cfg.Overhead,
		Seed:             seed,
		WeightsFromAvail: true,
		BestMaster:       true,
		TimeSteps:        cfg.TimeSteps,
	}
}

// TestScenarioSeedsAreShared pins the Stage-II seed scheme: every
// technique of application i in case ci runs on cfg.Seed ^ ci<<40 ^
// i<<20, so each outcome of RunScenarioContext equals a direct
// RunManyContext of its technique on that seed. It pins the seed
// formula and the shared draws against the one-technique path of the
// same code; that the first technique kept the bits it had before the
// techniques shared draws is pinned against recorded values by
// experiments.TestScenario4FirstTechniqueBitsPinned and
// sim.TestRunManyBitsPinned.
func TestScenarioSeedsAreShared(t *testing.T) {
	f := testFramework()
	alloc := exhaustiveAlloc(t, f)
	sc := Scenario{Name: "test", IM: ra.Exhaustive{}, RAS: RobustRAS()}
	cases := testCases(f)
	cfg := DefaultStageII(f.Deadline, 11)
	cfg.Reps = 8
	res, err := f.RunScenarioContext(context.Background(), sc, cases, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ci, cr := range res.Cases {
		for i, outs := range cr.PerApp {
			seed := cfg.Seed ^ uint64(ci)<<40 ^ uint64(i)<<20
			for ti, o := range outs {
				s, err := sim.RunManyContext(context.Background(), cellConfig(f, alloc, cases[ci], cfg, i, seed, sc.RAS[ti]), cfg.Reps)
				if err != nil {
					t.Fatal(err)
				}
				if o.MeanTime != s.Mean() || o.StdDev != s.StdDev() || o.PrMeet != s.PrLE(f.Deadline) {
					t.Errorf("case %d app %d %s: scenario %+v, direct run on the shared seed mean %v sd %v pr %v",
						ci, i, o.Technique, o, s.Mean(), s.StdDev(), s.PrLE(f.Deadline))
				}
			}
		}
	}
}

// TestSharedDrawsKeepMakespanDistributions checks that sharing draws
// changed which noise the techniques are compared on, not what they
// produce: for each robust technique, the makespans pooled over ten
// seeds and both applications are KS-indistinguishable at alpha = 0.01
// from the same cells run on the per-technique salted seeds
// (seed ^ ti<<4) the techniques used to draw from independently.
func TestSharedDrawsKeepMakespanDistributions(t *testing.T) {
	f := testFramework()
	alloc := exhaustiveAlloc(t, f)
	c := testCases(f)[1]
	cfg := DefaultStageII(f.Deadline, 0)
	cfg.Reps = 20
	ras := RobustRAS()
	arms := make([]sim.Arm, len(ras))
	for ti, tech := range ras {
		arms[ti] = sim.Arm{Technique: tech}
	}
	shared := make([][]float64, len(ras))
	salted := make([][]float64, len(ras))
	for s := uint64(1); s <= 10; s++ {
		for i := range f.Batch {
			seed := s ^ uint64(i)<<20
			got, err := sim.RunArmsContext(context.Background(), cellConfig(f, alloc, c, cfg, i, seed, dls.Technique{}), arms, cfg.Reps)
			if err != nil {
				t.Fatal(err)
			}
			for ti, tech := range ras {
				old, err := sim.RunManyContext(context.Background(), cellConfig(f, alloc, c, cfg, i, seed^uint64(ti)<<4, tech), cfg.Reps)
				if err != nil {
					t.Fatal(err)
				}
				shared[ti] = append(shared[ti], got[ti].Makespans...)
				salted[ti] = append(salted[ti], old.Makespans...)
			}
		}
	}
	for ti, tech := range ras {
		d := stats.KSStatistic(shared[ti], salted[ti])
		crit, err := stats.KSCritical(0.01, len(shared[ti]), len(salted[ti]))
		if err != nil {
			t.Fatal(err)
		}
		if d > crit {
			t.Errorf("%s: KS distance %.4f between shared and salted draws exceeds the alpha = 0.01 critical value %.4f", tech.Name, d, crit)
		}
	}
}
