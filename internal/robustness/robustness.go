// Package robustness quantifies the robustness of resource allocations
// and runtime schedules, following the paper's Section III.C:
//
//   - Stage I robustness: the joint probability phi_1 = Pr(Psi <= Delta)
//     that every application of the batch completes by the common
//     deadline, computed from the per-application completion-time PMFs
//     (independence lets the per-application probabilities multiply).
//   - Stage II robustness: the largest percentage decrease in weighted
//     system availability, 1 - E[A_i]/E[A_hat], that all applications
//     tolerate without violating the deadline.
package robustness

import (
	"fmt"
	"math"

	"cdsf/internal/pmf"
	"cdsf/internal/sysmodel"
)

// StageIResult carries the Stage-I evaluation of one allocation.
type StageIResult struct {
	// Alloc is the evaluated allocation.
	Alloc sysmodel.Allocation
	// Completion[i] is the completion-time PMF of application i on its
	// assigned processors under the expected availability.
	Completion []pmf.PMF
	// PerApp[i] is Pr(T_i <= Delta) for application i.
	PerApp []float64
	// Phi1 is the joint probability that all applications meet the
	// deadline (the product of PerApp).
	Phi1 float64
	// ExpectedTimes[i] is E[T_i], the paper's Table V estimate.
	ExpectedTimes []float64
}

// EvaluateStageI computes phi_1 and the supporting per-application
// quantities for an allocation under the system's (expected)
// availability PMFs and the common deadline.
func EvaluateStageI(sys *sysmodel.System, batch sysmodel.Batch, alloc sysmodel.Allocation, deadline float64) (*StageIResult, error) {
	if err := alloc.Validate(sys, batch); err != nil {
		return nil, err
	}
	res := &StageIResult{
		Alloc:         alloc.Clone(),
		Completion:    make([]pmf.PMF, len(batch)),
		PerApp:        make([]float64, len(batch)),
		ExpectedTimes: make([]float64, len(batch)),
		Phi1:          1,
	}
	for i := range batch {
		as := alloc[i]
		c := batch[i].CompletionPMF(as.Type, as.Procs, sys.Types[as.Type].Avail)
		res.Completion[i] = c
		res.PerApp[i] = c.PrLE(deadline)
		res.ExpectedTimes[i] = c.Mean()
		res.Phi1 *= res.PerApp[i]
	}
	return res, nil
}

// EvaluateStageIDAG is EvaluateStageI for a precedence-constrained
// batch: per-application completion PMFs are composed along the edges
// (C_i = T_i + max over predecessors' C, sysmodel.ComposeDAG), PerApp
// and ExpectedTimes report the composed distributions, and Phi1 is the
// product over the sink applications. PERT's max and that product both
// treat paths through a shared ancestor as independent, and both err
// low (sysmodel/dag.go), so Phi1 is a lower bound on the probability
// that the whole DAG finishes by the deadline, up to compaction error.
// With no edges it is exactly EvaluateStageI.
func EvaluateStageIDAG(sys *sysmodel.System, batch sysmodel.Batch, edges []sysmodel.Edge, alloc sysmodel.Allocation, deadline float64) (*StageIResult, error) {
	if len(edges) == 0 {
		return EvaluateStageI(sys, batch, alloc, deadline)
	}
	if err := alloc.Validate(sys, batch); err != nil {
		return nil, err
	}
	if err := sysmodel.ValidateEdges(edges, len(batch)); err != nil {
		return nil, err
	}
	dists := make([]pmf.PMF, len(batch))
	for i := range batch {
		as := alloc[i]
		dists[i] = batch[i].CompletionPMF(as.Type, as.Procs, sys.Types[as.Type].Avail)
	}
	comp, err := sysmodel.ComposeDAG(dists, edges, sysmodel.DAGMaxPulses)
	if err != nil {
		return nil, err
	}
	res := &StageIResult{
		Alloc:         alloc.Clone(),
		Completion:    comp,
		PerApp:        make([]float64, len(batch)),
		ExpectedTimes: make([]float64, len(batch)),
		Phi1:          1,
	}
	for i := range batch {
		res.PerApp[i] = comp[i].PrLE(deadline)
		res.ExpectedTimes[i] = comp[i].Mean()
	}
	for _, s := range sysmodel.Sinks(edges, len(batch)) {
		res.Phi1 *= res.PerApp[s]
	}
	return res, nil
}

// StageIProbability returns just phi_1 for an allocation; it is the
// objective that the Stage-I heuristics maximize.
func StageIProbability(sys *sysmodel.System, batch sysmodel.Batch, alloc sysmodel.Allocation, deadline float64) (float64, error) {
	r, err := EvaluateStageI(sys, batch, alloc, deadline)
	if err != nil {
		return 0, err
	}
	return r.Phi1, nil
}

// MakespanPMF returns the PMF of the system makespan Psi = max_i T_i for
// the allocation, assuming independent application completion times.
// Pr(Psi <= Delta) of this PMF equals Phi1 of EvaluateStageI. The pulse
// count grows multiplicatively, so each intermediate result is compacted
// to at most maxPulses pulses (<= 0 means no compaction).
func MakespanPMF(sys *sysmodel.System, batch sysmodel.Batch, alloc sysmodel.Allocation, maxPulses int) (pmf.PMF, error) {
	if err := alloc.Validate(sys, batch); err != nil {
		return pmf.PMF{}, err
	}
	var out pmf.PMF
	for i := range batch {
		as := alloc[i]
		c := batch[i].CompletionPMF(as.Type, as.Procs, sys.Types[as.Type].Avail)
		if i == 0 {
			out = c
		} else {
			out = pmf.Max(out, c)
		}
		if maxPulses > 0 {
			out = out.Compact(maxPulses)
		}
	}
	return out, nil
}

// AvailabilityDecrease returns the paper's Stage-II perturbation
// magnitude 1 - E[A_case]/E[A_hat] between a perturbed system and the
// reference system, using weighted system availability (Eq. 1). The
// result is a fraction; Table I brackets report it in percent.
func AvailabilityDecrease(reference, perturbed *sysmodel.System) float64 {
	return 1 - perturbed.WeightedAvailability()/reference.WeightedAvailability()
}

// StageIIOutcome records, for one availability case, whether every
// application met the deadline under its best DLS technique and the
// corresponding availability decrease.
type StageIIOutcome struct {
	// Decrease is 1 - E[A_case]/E[A_hat].
	Decrease float64
	// AllMeetDeadline reports whether some DLS technique satisfied the
	// deadline for every application.
	AllMeetDeadline bool
}

// StageIIRobustness returns rho_2: the largest availability decrease
// among the outcomes whose deadline was met by all applications, or 0
// (and false) if none qualifies. Outcomes are typically one per
// availability case.
func StageIIRobustness(outcomes []StageIIOutcome) (float64, bool) {
	best := math.Inf(-1)
	ok := false
	for _, o := range outcomes {
		if o.AllMeetDeadline && o.Decrease > best {
			best = o.Decrease
			ok = true
		}
	}
	if !ok {
		return 0, false
	}
	return best, true
}

// Tuple is the paper's system robustness 2-tuple (rho_1, rho_2):
// the best Stage-I joint deadline probability and the largest tolerable
// Stage-II availability decrease.
type Tuple struct {
	Rho1 float64
	Rho2 float64
}

// String formats the tuple in the paper's percent notation.
func (t Tuple) String() string {
	return fmt.Sprintf("(%.1f%%, %.2f%%)", t.Rho1*100, t.Rho2*100)
}
