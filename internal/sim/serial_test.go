package sim

import (
	"context"
	"math"
	"testing"

	"cdsf/internal/availability"
	"cdsf/internal/dls"
	"cdsf/internal/pmf"
	"cdsf/internal/stats"
)

// TestSerialPhaseMatchesMaster checks the serial phase, which
// TestParallelPhaseAboveFluidBound leaves out, against its definition
// on the run's own sample path. For every registered technique, the
// Static, Redraw, Markov and SharedLoad models, 20 seeds, and with and
// without a release time, the test rebuilds the run's availability
// processes and cost layout from its seed and picks the master as
// BestMaster does: the first worker of highest availability at the
// release. A single-sweep run's SerialTime must then be bit for bit
// the master's FinishTime(release, Σ serial costs) − release. A
// three-sweep run picks a master per sweep, so the test asserts only
// that SerialTime covers the summed serial work of all sweeps, which
// holds because availability is at most 1.
func TestSerialPhaseMatchesMaster(t *testing.T) {
	load := pmf.MustNew([]pmf.Pulse{{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1, Prob: 0.5}})
	const interval = 30.0
	models := []struct {
		name string
		mk   func() availability.Model
	}{
		{"static", func() availability.Model { return availability.Static{PMF: load} }},
		{"redraw", func() availability.Model { return availability.Redraw{PMF: load, Interval: interval} }},
		{"markov", func() availability.Model { return availability.NewMarkov(load, interval, 0.5) }},
		{"sharedload", func() availability.Model {
			return &availability.SharedLoad{Shared: load, Idio: load, Mix: 0.5, Interval: interval, Persistence: 0.5}
		}},
	}
	checked := 0
	for _, m := range models {
		for _, steps := range []int{1, 3} {
			for _, release := range []float64{0, 47.5} {
				for _, tc := range dls.All() {
					for seed := uint64(1); seed <= 20; seed++ {
						cfg := Config{
							SerialIters:      10,
							ParallelIters:    200,
							Workers:          5,
							IterTime:         stats.NewNormal(1, 0.3),
							Avail:            m.mk(),
							Technique:        tc,
							Overhead:         0.5,
							TimeSteps:        steps,
							WeightsFromAvail: true,
							BestMaster:       true,
							Release:          release,
							Seed:             seed,
						}
						res, err := RunContext(context.Background(), cfg)
						if err != nil {
							t.Fatalf("%s/%s seed %d: %v", m.name, tc.Name, seed, err)
						}
						_, work := streams(seed)
						costs := fillCosts(&cfg, work, nil)
						sweep := cfg.SerialIters + cfg.ParallelIters
						if steps == 1 {
							serial := 0.0
							for _, x := range costs[:cfg.SerialIters] {
								serial += x
							}
							want := bestMaster(&cfg).FinishTime(release, serial) - release
							if math.Float64bits(res.SerialTime) != math.Float64bits(want) {
								t.Errorf("%s/%s release %v seed %d: serial time %v, the master finishes %v after the release",
									m.name, tc.Name, release, seed, res.SerialTime, want)
							}
						} else {
							serial := 0.0
							for step := 0; step < steps; step++ {
								for _, x := range costs[step*sweep : step*sweep+cfg.SerialIters] {
									serial += x
								}
							}
							// Each sweep's serial time is a difference of
							// absolute times, rounded once more than the
							// work it covers.
							if res.SerialTime < serial*(1-fluidTol) {
								t.Errorf("%s/%s release %v seed %d: serial time %v below the serial work %v of %d sweeps",
									m.name, tc.Name, release, seed, res.SerialTime, serial, steps)
							}
						}
						checked++
					}
				}
			}
		}
	}
	if want := len(models) * 2 * 2 * 20 * len(dls.All()); checked != want {
		t.Fatalf("checked %d runs, want %d", checked, want)
	}
}

// bestMaster rebuilds cfg's availability processes from its seed and
// returns the one BestMaster runs the serial phase on at the release:
// the first of highest availability.
func bestMaster(cfg *Config) availability.Process {
	avail, _ := streams(cfg.Seed)
	if gr, ok := cfg.Avail.(availability.GroupScoped); ok {
		gr.ResetGroup()
	}
	procs := make([]availability.Process, cfg.Workers)
	for i := range procs {
		procs[i] = cfg.Avail.NewProcess(avail)
	}
	master := 0
	for i := 1; i < cfg.Workers; i++ {
		if procs[i].At(cfg.Release) > procs[master].At(cfg.Release) {
			master = i
		}
	}
	return procs[master]
}
