package experiments

import (
	"fmt"

	"cdsf/internal/availability"
	"cdsf/internal/report"
	"cdsf/internal/sim"
)

// GenerateCorrelationStudy addresses the paper's future-work question
// on correlated availabilities: the paper's application 3 is simulated
// while the mix between a system-wide load factor and per-processor
// idiosyncratic load grows from 0 (independent processors, the base
// model) to 1 (perfectly correlated group). Correlated slowdowns cannot
// be rebalanced away — every worker slows together — so the adaptive
// techniques' advantage over STATIC shrinks as the mix grows, while all
// absolute makespans rise.
func GenerateCorrelationStudy(seed uint64, reps int) (*report.Table, error) {
	mixes := []float64{0, 0.25, 0.5, 0.75, 1}
	cols := make([]string, len(mixes))
	for i, m := range mixes {
		cols[i] = fmt.Sprintf("mix=%g", m)
	}
	techs, err := techniques("STATIC", "FAC", "WF", "AWF-B", "AF")
	if err != nil {
		return nil, err
	}
	_, _, _, avail := sensApp()
	return techTable("Correlated-availability study: mean makespan of App 3 (shared-load mix)",
		techs, cols, reps, func(c int) sim.Config {
			return sensConfig(1, 0.3, &availability.SharedLoad{
				Shared:      avail,
				Idio:        avail,
				Mix:         mixes[c],
				Interval:    Deadline / 4,
				Persistence: 0.5,
			}, seed)
		})
}
