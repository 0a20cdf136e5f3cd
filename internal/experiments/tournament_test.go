package experiments

import (
	"context"
	"math"
	"testing"

	"cdsf/internal/availability"
	"cdsf/internal/core"
	"cdsf/internal/dls"
	"cdsf/internal/sim"
)

// TestEveryKeptTechniqueWinsACell names, for every registered DLS
// technique outside the paper's five, one seeded cell of the DLS
// tournament (EXPERIMENTS.md "DLS tournament") in which its mean
// makespan is strictly the lowest of all registered techniques, on
// shared draws. A technique that no longer wins its cell, or a new one
// that names none, fails here: the tournament's rule keeps a
// registered technique only while it is the best choice somewhere.
func TestEveryKeptTechniqueWinsACell(t *testing.T) {
	techs := dls.All()
	ctx := context.Background()
	_, _, _, avail := sensApp()
	markov := availability.Markov{PMF: avail, Interval: Deadline / 4, Persistence: 0.5}
	// app3 is an application-3 cell: sensConfig under the sensitivity
	// studies' Markov model, changed by tweak, at 60 repetitions.
	app3 := func(overhead float64, seed uint64, tweak func(*sim.Config)) func(*testing.T) []float64 {
		return func(t *testing.T) []float64 {
			cfg := sensConfig(overhead, 0.3, markov, seed)
			if tweak != nil {
				tweak(&cfg)
			}
			arms := make([]sim.Arm, len(techs))
			for i, tech := range techs {
				arms[i] = sim.Arm{Technique: tech}
			}
			samples, err := sim.RunArmsContext(ctx, cfg, arms, 60)
			if err != nil {
				t.Fatal(err)
			}
			means := make([]float64, len(samples))
			for i, s := range samples {
				means[i] = s.Mean()
			}
			return means
		}
	}
	// paperCell is application i of a paper-grid cell: the robust Table
	// IV allocation under case c and DefaultStageII.
	paperCell := func(c int, seed uint64, i int) func(*testing.T) []float64 {
		return func(t *testing.T) []float64 {
			cr, err := Framework().RunCaseContext(ctx, PaperRobustAllocation(), techs, Cases()[c], core.DefaultStageII(Deadline, seed))
			if err != nil {
				t.Fatal(err)
			}
			means := make([]float64, len(techs))
			for ti, o := range cr.PerApp[i] {
				means[ti] = o.MeanTime
			}
			return means
		}
	}
	cells := []struct {
		tech, cell string
		means      func(*testing.T) []float64
	}{
		{"SS", "application 3, h = 0, seed 1", app3(0, 1, nil)},
		{"FSC", "application 3, decreasing profile, seed 1", app3(1, 1, func(c *sim.Config) { c.IterProfile = sim.DecreasingProfile })},
		{"TSS", "application 3, 8 time steps, seed 1", app3(1, 1, func(c *sim.Config) { c.TimeSteps = 8 })},
		{"AWF", "application 3, 2 time steps, seed 1", app3(1, 1, func(c *sim.Config) { c.TimeSteps = 2 })},
		{"AWF-C", "application 3, h = 20, seed 1", app3(20, 1, nil)},
		{"AWF-E", "application 3, h = 5, seed 2", app3(5, 2, nil)},
		{"AWF-D", "paper grid, robust allocation, case 4, seed 5, application 1", paperCell(3, 5, 0)},
	}
	covered := map[string]bool{}
	for _, tech := range append(core.NaiveRAS(), core.RobustRAS()...) {
		covered[tech.Name] = true
	}
	for _, c := range cells {
		means := c.means(t)
		best := 0
		for i, m := range means {
			if m < means[best] {
				best = i
			}
		}
		tied := 0
		for _, m := range means {
			if math.Abs(m-means[best]) <= 1e-12*means[best] {
				tied++
			}
		}
		if techs[best].Name != c.tech || tied > 1 {
			t.Errorf("%s: best is %s (%d tied at %.2f), want %s alone", c.cell, techs[best].Name, tied, means[best], c.tech)
		}
		covered[c.tech] = true
	}
	for _, tech := range techs {
		if !covered[tech.Name] {
			t.Errorf("%s is registered but is neither a paper technique nor names a cell it wins", tech.Name)
		}
	}
}
