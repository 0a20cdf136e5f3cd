// Package core implements the combined dual-stage framework (CDSF)
// itself: it wires a Stage-I resource allocation heuristic to a Stage-II
// set of dynamic loop scheduling techniques, evaluates the four
// IM x RAS scenarios of the paper's Section IV, and quantifies the
// system robustness tuple (rho_1, rho_2).
//
// The public surface is:
//
//   - Framework: the problem (system, batch, deadline) plus reference
//     availability.
//   - Case: one runtime availability case (the paper's Table I cases).
//   - Scenario: an IM policy paired with a RAS technique set.
//   - RunScenario: Stage I (PMF mathematics) + Stage II (discrete-event
//     simulation per application, technique, and case).
//   - SystemRobustness: (rho_1, rho_2) from a scenario result.
package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"cdsf/internal/availability"
	"cdsf/internal/cache"
	"cdsf/internal/dls"
	"cdsf/internal/pmf"
	"cdsf/internal/ra"
	"cdsf/internal/robustness"
	"cdsf/internal/sim"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
	"cdsf/internal/tracing"
)

// Framework is one CDSF problem instance. The System's availability
// PMFs are the reference (expected) availability A-hat that Stage I
// plans against.
type Framework struct {
	Sys      *sysmodel.System
	Batch    sysmodel.Batch
	Deadline float64

	// Edges are optional precedence constraints over the batch (the
	// v1.1 DAG schema): edge {From, To} means application From must
	// finish before To starts. Stage I then optimizes the DAG phi_1
	// (completion PMFs composed along predecessor chains) and Stage II
	// releases each application only when all its predecessors have
	// finished, per replication. Empty means the paper's independent
	// batch, bit-identical to the pre-DAG framework.
	Edges []sysmodel.Edge
}

// Validate checks the instance.
func (f *Framework) Validate() error {
	p := ra.Problem{Sys: f.Sys, Batch: f.Batch, Deadline: f.Deadline, Edges: f.Edges}
	return p.Validate()
}

// Case is one runtime availability case: a name and one availability
// PMF per processor type. The reference case's PMFs equal the system's.
type Case struct {
	Name  string
	Avail []pmf.PMF
}

// Decrease returns this case's weighted-availability decrease
// 1 - E[A_case]/E[A_hat] relative to the framework's reference system.
func (f *Framework) Decrease(c Case) float64 {
	return robustness.AvailabilityDecrease(f.Sys, f.Sys.WithAvailability(c.Avail))
}

// FallbackCases returns the runtime availability cases evaluated when
// an instance declares none: the reference availability itself plus
// uniform degradations to 80% and 60% of it. The cdsf CLI and the
// scheduling service share this default, so an instance without cases
// behaves identically however it is submitted.
func FallbackCases(sys *sysmodel.System) []Case {
	ref := make([]pmf.PMF, len(sys.Types))
	for j, t := range sys.Types {
		ref[j] = t.Avail
	}
	cases := []Case{{Name: "reference", Avail: ref}}
	for _, scale := range []float64{0.8, 0.6} {
		scaled := make([]pmf.PMF, len(sys.Types))
		for j, t := range sys.Types {
			scaled[j] = t.Avail.Scale(scale)
		}
		cases = append(cases, Case{
			Name:  fmt.Sprintf("scaled %.0f%%", scale*100),
			Avail: scaled,
		})
	}
	return cases
}

// StageIIConfig controls the Stage-II simulations. Every simulation
// hands the DLS technique a-priori worker weights equal to each
// worker's availability at the start of the run (the "historical load
// knowledge" WF assumes) and stages the serial phase on the group's
// most available processor.
type StageIIConfig struct {
	// Reps is the number of independent simulation repetitions per
	// (application, technique, case); must be positive.
	Reps int
	// Overhead is the per-chunk scheduling overhead in time units.
	Overhead float64
	// IterCV is the coefficient of variation of a single iteration's
	// execution time (sigma/mu); must be positive.
	IterCV float64
	// Model builds the availability model for a group of processors
	// from the case's per-type availability PMF. Nil uses
	// availability.Static (one draw per processor per run).
	Model func(p pmf.PMF) availability.Model
	// TimeSteps runs each application as a time-stepping loop with this
	// many sweeps (0 or 1 means a single sweep); the deadline then
	// applies to the whole multi-sweep execution.
	TimeSteps int
	// PMFBackend selects the distribution representation of the
	// Stage-I search embedded in a scenario run: the exact sparse
	// pulses (the zero value) or the dense fixed-step grid (see
	// DESIGN.md, "Two PMF backends"). It never affects the Stage-II
	// Monte-Carlo replications, whose seeds and rng streams are
	// backend-independent.
	PMFBackend pmf.Backend
	// Seed drives all Stage-II randomness.
	Seed uint64
	// Obs receives the scenario's instrumentation and is threaded into
	// the Stage-I ra.Problem and every Stage-II sim.Config.
	// RunScenarioContext adds per-scenario wall time and repetition
	// counts to Obs.Metrics; Obs.Tracer gets wall-clock spans for
	// Stage I and the scenario -> case -> application nesting, plus one
	// representative simulated-time chunk timeline per (case,
	// application, technique) cell on hierarchically named lanes;
	// Obs.Progress gets scenario, case and replication counts, so the
	// scheduling service wires a per-job board here and concurrent jobs
	// report separately. The zero Scope records nothing.
	// Instrumentation derives only from wall time and finished results,
	// so seeded outputs are bit-identical under any scope.
	Obs tracing.Scope
	// Cache optionally shares warm Stage-I evaluation-table
	// distributions across runs (see ra.Problem.Cache): scenarios over
	// the same types and applications reuse one cached distribution set
	// even when the deadline, heuristic, or availability cases differ.
	// On a DAG batch it also shares the final Stage-I evaluation of an
	// allocation (ra.Problem.Evaluate). Results are bit-identical with
	// or without it. Nil disables sharing.
	Cache *cache.Cache
}

// DefaultStageII returns the configuration used by the paper
// reproduction, calibrated (see EXPERIMENTS.md) to reproduce the
// paper's qualitative Stage-II results: 60 repetitions, overhead 1 time
// unit, iteration CV 0.3, and Markov availability (bursty external
// load) with interval Delta/4 and persistence 0.5.
func DefaultStageII(deadline float64, seed uint64) StageIIConfig {
	return StageIIConfig{
		Reps:     60,
		Overhead: 1,
		IterCV:   0.3,
		Model: func(p pmf.PMF) availability.Model {
			return availability.NewMarkov(p, deadline/4, 0.5)
		},
		Seed: seed,
	}
}

func (c *StageIIConfig) validate() error {
	if c.Reps <= 0 {
		return fmt.Errorf("core: %d stage-II repetitions", c.Reps)
	}
	if c.IterCV <= 0 {
		return fmt.Errorf("core: non-positive iteration CV %v", c.IterCV)
	}
	if c.Overhead < 0 {
		return fmt.Errorf("core: negative overhead %v", c.Overhead)
	}
	if err := c.PMFBackend.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Scenario pairs a Stage-I policy with a Stage-II technique set — the
// paper's four scenarios are the cross product of {naive, robust} for
// both stages.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// IM is the Stage-I heuristic.
	IM ra.Heuristic
	// RAS is the Stage-II technique set; the best technique per
	// (application, case) is selected a posteriori as in the paper.
	RAS []dls.Technique
}

// NaiveRAS returns {STATIC}.
func NaiveRAS() []dls.Technique {
	t, err := dls.ByName("STATIC")
	if err != nil {
		panic(err)
	}
	return []dls.Technique{t}
}

// RobustRAS returns the paper's robust set {FAC, WF, AWF-B, AF}.
func RobustRAS() []dls.Technique { return dls.PaperRobustSet() }

// PaperScenarios returns the paper's four scenarios in order:
// naive-naive, robust-naive, naive-robust, robust-robust, with the
// given IM heuristics for naive and robust Stage I.
func PaperScenarios(naiveIM, robustIM ra.Heuristic) []Scenario {
	return []Scenario{
		{Name: "1) naive IM - naive RAS", IM: naiveIM, RAS: NaiveRAS()},
		{Name: "2) robust IM - naive RAS", IM: robustIM, RAS: NaiveRAS()},
		{Name: "3) naive IM - robust RAS", IM: naiveIM, RAS: RobustRAS()},
		{Name: "4) robust IM - robust RAS", IM: robustIM, RAS: RobustRAS()},
	}
}

// FieldError attributes a failure to resolve a named value to the
// request field that named it ("im", "ras[1]", "pmf_backend"), so API
// layers can point at it in structured error documents. Its message is
// the underlying error's.
type FieldError struct {
	Field string
	Err   error
}

func (e *FieldError) Error() string { return e.Err.Error() }

func (e *FieldError) Unwrap() error { return e.Err }

// BuildScenario resolves the scenario selection shared by the cdsf CLI
// and the scheduling service: with no custom IM and no RAS names it
// returns one of the paper's four scenarios (naive load balance vs.
// exhaustive Stage I); otherwise a custom scenario pairing the named
// Stage-I heuristic (default exhaustive) with the named Stage-II
// techniques (default the paper's robust set). Heuristic names resolve
// through ra.ByName and technique names through the dls registry, so
// wire names, CLI flags, and report labels cannot drift. A value that
// does not resolve fails with a *FieldError naming its request field:
// "scenario", "im" or "ras[k]".
func BuildScenario(scenario int, im string, ras []string) (Scenario, error) {
	if im == "" && len(ras) == 0 {
		if scenario < 1 || scenario > 4 {
			return Scenario{}, &FieldError{Field: "scenario", Err: fmt.Errorf("core: scenario %d out of 1..4", scenario)}
		}
		return PaperScenarios(ra.NaiveLoadBalance{}, ra.Exhaustive{})[scenario-1], nil
	}
	imName := im
	if imName == "" {
		imName = "exhaustive"
	}
	h, err := ra.ByName(imName)
	if err != nil {
		return Scenario{}, &FieldError{Field: "im", Err: err}
	}
	sc := Scenario{IM: h}
	if len(ras) == 0 {
		sc.RAS = RobustRAS()
	} else {
		for k, name := range ras {
			t, err := dls.ByName(name)
			if err != nil {
				return Scenario{}, &FieldError{Field: fmt.Sprintf("ras[%d]", k), Err: err}
			}
			sc.RAS = append(sc.RAS, t)
		}
	}
	techNames := make([]string, len(sc.RAS))
	for i, t := range sc.RAS {
		techNames[i] = t.Name
	}
	sc.Name = fmt.Sprintf("custom: %s IM + {%s}", h.Name(), strings.Join(techNames, ","))
	return sc, nil
}

// TechOutcome is the Stage-II result of one (application, technique,
// case) cell.
type TechOutcome struct {
	Technique string
	// MeanTime is the mean simulated application completion time
	// (serial + parallel phases; for a DAG batch it is absolute —
	// release gate plus both phases — so the deadline check compares
	// end-to-end completion).
	MeanTime float64
	// StdDev is the standard deviation across repetitions.
	StdDev float64
	// PrMeet is the fraction of repetitions meeting the deadline.
	PrMeet float64
	// Meets reports whether the mean time satisfies the deadline (the
	// paper's per-figure criterion).
	Meets bool
}

// CaseResult is the Stage-II result of one availability case.
type CaseResult struct {
	Case Case
	// Decrease is 1 - E[A_case]/E[A_hat].
	Decrease float64
	// PerApp[i] lists the outcome of each technique for application i.
	PerApp [][]TechOutcome
	// Best[i] is the technique with the smallest mean time among those
	// meeting the deadline for application i, or "" if none meets it
	// (the paper's Table VI dash).
	Best []string
	// AllMeet reports whether every application had at least one
	// deadline-meeting technique.
	AllMeet bool
}

// ScenarioResult is the full evaluation of one scenario.
type ScenarioResult struct {
	Scenario string
	// StageI carries the allocation, phi_1, and Table-V expected times.
	// It comes from ra.Problem.Evaluate, so with a cfg.Cache on a DAG
	// batch its Completion PMFs are nil.
	StageI *robustness.StageIResult
	// Cases holds one CaseResult per evaluated availability case.
	Cases []CaseResult
	// WarmHits/WarmMisses count the Stage-I evaluation-table cells
	// derived from the warm solve cache vs computed from scratch (both
	// zero without a cfg.Cache). They describe how the run was
	// computed, not what it computed, and are not part of the wire
	// result document.
	WarmHits, WarmMisses int64
}

// RunScenarioContext is RunScenario under a context: ctx reaches the
// Stage-I search (through ra.SolveContext) and every Stage-II
// replication fan-out, and is additionally checked between cases, so a
// cancelled scenario drains its worker pools and returns an error
// wrapping ctx.Err(). Uncancelled seeded runs are bit-identical to
// RunScenario.
func (f *Framework) RunScenarioContext(ctx context.Context, sc Scenario, cases []Case, cfg StageIIConfig) (*ScenarioResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	reg, tr, prog := cfg.Obs.Metrics, cfg.Obs.Tracer, cfg.Obs.Progress
	var t0 time.Time
	if reg != nil {
		t0 = time.Now()
	}
	prog.PlanScenarios(1)
	prog.PlanCases(len(cases))
	scenarioRegion := tr.Begin("stage2", sc.Name, "scenario")
	stage1Region := tr.Begin("stage2", "stage1: "+sc.IM.Name(), "stage1")
	prob := &ra.Problem{Sys: f.Sys, Batch: f.Batch, Deadline: f.Deadline, Edges: f.Edges, Backend: cfg.PMFBackend, Obs: cfg.Obs, Cache: cfg.Cache}
	alloc, err := ra.SolveContext(ctx, sc.IM, prob)
	stage1Region.End()
	if err != nil {
		return nil, fmt.Errorf("core: stage I (%s): %w", sc.IM.Name(), err)
	}
	stage1, err := prob.Evaluate(alloc)
	if err != nil {
		return nil, err
	}
	res := &ScenarioResult{Scenario: sc.Name, StageI: stage1}
	res.WarmHits, res.WarmMisses = prob.CacheCounts()
	for ci, c := range cases {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: canceled after %d/%d cases: %w", ci, len(cases), err)
		}
		caseRegion := tr.Begin("stage2", "case: "+c.Name, "case")
		cr, err := f.runCase(ctx, alloc, sc.RAS, c, cfg, uint64(ci), sc.Name+"/"+c.Name)
		caseRegion.End()
		if err != nil {
			return nil, err
		}
		res.Cases = append(res.Cases, *cr)
		prog.CaseDone()
	}
	scenarioRegion.End()
	prog.ScenarioDone()
	if reg != nil {
		name := metricName(sc.Name)
		reg.Counter("core.scenarios").Inc()
		reg.Timer("core.scenario_wall." + name).Observe(time.Since(t0))
		// cfg.Reps repetitions of every (application, technique, case)
		// cell.
		cells := len(f.Batch) * len(cases) * len(sc.RAS)
		reg.Counter("core.stage2_reps." + name).Add(int64(cells * cfg.Reps))
	}
	return res, nil
}

// metricName sanitizes a scenario name into a metric-name suffix:
// lower case, spaces and punctuation collapsed to single underscores.
func metricName(s string) string {
	var b strings.Builder
	lastUnderscore := true
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			lastUnderscore = false
		default:
			if !lastUnderscore {
				b.WriteByte('_')
				lastUnderscore = true
			}
		}
	}
	return strings.TrimSuffix(b.String(), "_")
}

// RunCaseContext evaluates the Stage-II simulations of one availability
// case for a fixed allocation: for every application it runs every
// technique for cfg.Reps repetitions on shared draws (sim.RunArmsContext)
// and selects the best deadline-meeting technique, exactly as one case
// iteration of RunScenarioContext does. It is the entry point
// behind the scheduling service's simulate jobs. Seeded calls are
// bit-identical to the first case of a scenario run (the per-case seed
// salt is the case index, which is 0 here).
func (f *Framework) RunCaseContext(ctx context.Context, alloc sysmodel.Allocation, ras []dls.Technique, c Case, cfg StageIIConfig) (*CaseResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := alloc.Validate(f.Sys, f.Batch); err != nil {
		return nil, err
	}
	if len(ras) == 0 {
		return nil, fmt.Errorf("core: no stage-II techniques")
	}
	cfg.Obs.Progress.PlanCases(1)
	cr, err := f.runCase(ctx, alloc, ras, c, cfg, 0, c.Name)
	if err != nil {
		return nil, err
	}
	cfg.Obs.Progress.CaseDone()
	return cr, nil
}

func (f *Framework) runCase(ctx context.Context, alloc sysmodel.Allocation, ras []dls.Technique, c Case, cfg StageIIConfig, caseSalt uint64, traceScope string) (*CaseResult, error) {
	if len(c.Avail) != len(f.Sys.Types) {
		return nil, fmt.Errorf("core: case %q has %d availability PMFs for %d types",
			c.Name, len(c.Avail), len(f.Sys.Types))
	}
	mkModel := cfg.Model
	if mkModel == nil {
		mkModel = func(p pmf.PMF) availability.Model { return availability.Static{PMF: p} }
	}
	out := &CaseResult{
		Case:     c,
		Decrease: f.Decrease(c),
		PerApp:   make([][]TechOutcome, len(f.Batch)),
		Best:     make([]string, len(f.Batch)),
		AllMeet:  true,
	}
	// A DAG batch simulates applications in topological order so each
	// application's per-replication release time — the max of its
	// predecessors' absolute finish times in the same replication and
	// under the same technique — is known before it runs. Technique
	// chains are coupled per technique index: each technique is
	// evaluated as if the whole DAG ran under it, and the best per
	// application is still compared afterwards. An edge-free batch
	// takes the identical i = 0..n-1 path with no release gating.
	//
	// Application i of case caseSalt runs every technique on the seed
	// cfg.Seed ^ caseSalt<<40 ^ i<<20.
	order := make([]int, len(f.Batch))
	for i := range order {
		order[i] = i
	}
	var preds [][]int
	var finishes [][][]float64 // [technique][app] -> per-rep absolute finish
	dag := len(f.Edges) > 0
	if dag {
		var err error
		order, err = sysmodel.TopoOrder(f.Edges, len(f.Batch))
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		preds = sysmodel.Preds(f.Edges, len(f.Batch))
		finishes = make([][][]float64, len(ras))
		for ti := range finishes {
			finishes[ti] = make([][]float64, len(f.Batch))
		}
	}
	for _, i := range order {
		app := &f.Batch[i]
		as := alloc[i]
		iterMean := app.ExecTime[as.Type].Mean() / float64(app.TotalIters())
		iterDist := stats.Truncated{
			Dist: stats.NewNormal(iterMean, cfg.IterCV*iterMean),
			Lo:   iterMean * 1e-3,
			Hi:   iterMean * 1e3,
		}
		model := mkModel(c.Avail[as.Type])
		arms := make([]sim.Arm, len(ras))
		for ti, tech := range ras {
			arms[ti] = sim.Arm{Technique: tech, TraceScope: traceScope + "/" + app.Name + "/" + tech.Name}
			if dag {
				// Repetition r of application i starts when repetition r of
				// every predecessor finished under the same technique;
				// sources carry the zero release explicitly so every DAG
				// run reports the sim.dag metrics uniformly.
				releases := make([]float64, cfg.Reps)
				for _, pr := range preds[i] {
					for r, fin := range finishes[ti][pr] {
						if fin > releases[r] {
							releases[r] = fin
						}
					}
				}
				arms[ti].Releases = releases
			}
		}
		// Every technique of the cell runs on one seed and shares each
		// repetition's draws (common random numbers), so the techniques
		// are compared on the same availability trajectories and
		// iteration costs.
		appRegion := cfg.Obs.Tracer.Begin("stage2", app.Name, "app")
		samples, err := sim.RunArmsContext(ctx, sim.Config{
			SerialIters:      app.SerialIters,
			ParallelIters:    app.ParallelIters,
			Workers:          as.Procs,
			IterTime:         iterDist,
			Avail:            model,
			Overhead:         cfg.Overhead,
			Seed:             cfg.Seed ^ caseSalt<<40 ^ uint64(i)<<20,
			WeightsFromAvail: true,
			BestMaster:       true,
			TimeSteps:        cfg.TimeSteps,
			Obs:              cfg.Obs,
		}, arms, cfg.Reps)
		appRegion.End()
		if err != nil {
			return nil, err
		}
		outcomes := make([]TechOutcome, 0, len(ras))
		bestName, bestTime := "", 0.0
		for ti, s := range samples {
			if dag {
				finishes[ti][i] = s.Makespans
			}
			o := TechOutcome{
				Technique: ras[ti].Name,
				MeanTime:  s.Mean(),
				StdDev:    s.StdDev(),
				PrMeet:    s.PrLE(f.Deadline),
			}
			o.Meets = o.MeanTime <= f.Deadline
			outcomes = append(outcomes, o)
			if o.Meets && (bestName == "" || o.MeanTime < bestTime) {
				bestName, bestTime = o.Technique, o.MeanTime
			}
		}
		out.PerApp[i] = outcomes
		out.Best[i] = bestName
		if bestName == "" {
			out.AllMeet = false
		}
	}
	return out, nil
}

// SystemRobustness computes the paper's (rho_1, rho_2) from a scenario
// result: rho_1 is the Stage-I joint probability and rho_2 the largest
// availability decrease among cases where all applications met the
// deadline (0 when none qualifies).
func SystemRobustness(res *ScenarioResult) robustness.Tuple {
	outcomes := make([]robustness.StageIIOutcome, len(res.Cases))
	for i, c := range res.Cases {
		outcomes[i] = robustness.StageIIOutcome{
			Decrease:        c.Decrease,
			AllMeetDeadline: c.AllMeet,
		}
	}
	rho2, _ := robustness.StageIIRobustness(outcomes)
	return robustness.Tuple{Rho1: res.StageI.Phi1, Rho2: rho2}
}
