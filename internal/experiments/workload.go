package experiments

import (
	"cdsf/internal/availability"
	"cdsf/internal/dls"
	"cdsf/internal/report"
	"cdsf/internal/sim"
	"cdsf/internal/stats"
)

// This file checks the reproduction's conclusions against workload
// assumptions the paper leaves open: the iteration-time distribution
// family (the paper's PMFs come from normals, but irregular scientific
// loops are right-skewed) and systematic cost gradients across the
// iteration space.

// GenerateDistributionSensitivity simulates the paper's application 3
// under four iteration-time families with the same mean and (where
// applicable) the same coefficient of variation.
func GenerateDistributionSensitivity(seed uint64, reps int) (*report.Table, error) {
	_, _, iterMean, avail := sensApp()
	dists := []struct {
		name string
		d    stats.Dist
	}{
		{"normal", stats.NewNormal(iterMean, 0.3*iterMean)},
		{"lognormal", stats.LogNormalFromMoments(iterMean, 0.3*iterMean)},
		{"gamma", stats.GammaFromMoments(iterMean, 0.3*iterMean)},
		{"exponential", stats.NewExponential(1 / iterMean)},
	}
	cols := make([]string, len(dists))
	for i, d := range dists {
		cols[i] = d.name
	}
	model := availability.NewMarkov(avail, Deadline/4, 0.5)
	return techTable("Iteration-time-distribution sensitivity: mean makespan of App 3 (same mean)",
		dls.PaperRobustSet(), cols, reps, func(c int) sim.Config {
			cfg := sensConfig(1, 0.3, model, seed)
			cfg.IterTime = dists[c].d
			return cfg
		})
}

// GenerateProfileSensitivity simulates the paper's application 3 under
// the built-in iteration-cost profiles, comparing STATIC against the
// robust set: systematic gradients break equal-iteration splits even on
// fully available processors.
func GenerateProfileSensitivity(seed uint64, reps int) (*report.Table, error) {
	_, _, _, avail := sensApp()
	names := []string{"flat", "increasing", "decreasing", "peaked", "alternating"}
	profiles := make([]sim.Profile, len(names))
	for i, pn := range names {
		p, err := sim.ProfileByName(pn)
		if err != nil {
			return nil, err
		}
		profiles[i] = p
	}
	model := availability.NewMarkov(avail, Deadline/4, 0.5)
	techs, err := techniques("STATIC", "FAC", "WF", "AWF-B", "AF")
	if err != nil {
		return nil, err
	}
	return techTable("Iteration-profile sensitivity: mean makespan of App 3",
		techs, names, reps, func(c int) sim.Config {
			cfg := sensConfig(1, 0.3, model, seed)
			cfg.IterProfile = profiles[c]
			return cfg
		})
}
