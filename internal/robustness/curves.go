package robustness

import (
	"fmt"

	"cdsf/internal/pmf"
	"cdsf/internal/sysmodel"
)

// This file provides the robustness *curves* used by the sensitivity
// studies: how phi_1 varies with the deadline, and how the deadline
// probability degrades as availability is scaled down — the continuous
// counterparts of the paper's four discrete availability cases.

// CurvePoint is one (x, value) sample of a robustness curve.
type CurvePoint struct {
	X     float64
	Value float64
}

// DeadlineSweep evaluates phi_1 for an allocation at each deadline in
// deadlines (any order; the output preserves it).
func DeadlineSweep(sys *sysmodel.System, batch sysmodel.Batch, alloc sysmodel.Allocation, deadlines []float64) ([]CurvePoint, error) {
	if err := alloc.Validate(sys, batch); err != nil {
		return nil, err
	}
	// The per-application completion PMFs do not depend on the deadline;
	// compute them once.
	completions := make([]pmf.PMF, len(batch))
	for i := range batch {
		as := alloc[i]
		completions[i] = batch[i].CompletionPMF(as.Type, as.Procs, sys.Types[as.Type].Avail)
	}
	out := make([]CurvePoint, len(deadlines))
	for k, d := range deadlines {
		phi := 1.0
		for i := range completions {
			phi *= completions[i].PrLE(d)
		}
		out[k] = CurvePoint{X: d, Value: phi}
	}
	return out, nil
}

// AvailabilityScalingCurve evaluates phi_1 for an allocation while the
// availability PMFs of every processor type are scaled by each factor
// in scales (each in (0, 1]); the x of each point is the corresponding
// weighted-availability decrease. This is the continuous version of the
// paper's case-based Stage-II perturbation.
func AvailabilityScalingCurve(sys *sysmodel.System, batch sysmodel.Batch, alloc sysmodel.Allocation, deadline float64, scales []float64) ([]CurvePoint, error) {
	if err := alloc.Validate(sys, batch); err != nil {
		return nil, err
	}
	out := make([]CurvePoint, len(scales))
	for k, s := range scales {
		if s <= 0 || s > 1 {
			return nil, fmt.Errorf("robustness: scale %v out of (0,1]", s)
		}
		scaled := make([]pmf.PMF, len(sys.Types))
		for j, t := range sys.Types {
			scaled[j] = t.Avail.Scale(s)
		}
		pert := sys.WithAvailability(scaled)
		phi, err := StageIProbability(pert, batch, alloc, deadline)
		if err != nil {
			return nil, err
		}
		out[k] = CurvePoint{X: AvailabilityDecrease(sys, pert), Value: phi}
	}
	return out, nil
}
