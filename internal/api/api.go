// Package api defines the versioned JSON wire types of the cdsfd
// scheduling service. Everything a client sends or receives over HTTP
// lives here — request payloads, result documents, and the common
// asynchronous Job envelope — and nothing here carries behavior, so
// the wire contract can evolve (v1, v2, ...) independently of the
// engine packages.
//
// The v1 surface mirrors the three library entry points the service
// exposes as asynchronous jobs:
//
//   - SolveRequest  -> ra.SolveContext        (Stage-I mapping)
//   - SimulateRequest -> sim.RunManyContext   (Stage-II Monte Carlo,
//     via core's per-case driver)
//   - ScenarioRequest -> core.RunScenarioContext (the full framework)
//
// Problem instances ride on config.Instance, the same document the
// CLIs load from disk, and results echo the canonical rendering
// (config.Marshal) so a job's inputs are always reconstructible from
// its outputs.
package api

import (
	"encoding/json"
	"time"

	"cdsf/internal/config"
	"cdsf/internal/core"
	"cdsf/internal/robustness"
	"cdsf/internal/sysmodel"
	"cdsf/internal/tracing"
)

// Version is the wire version every route in this package is mounted
// under ("/v1/...").
const Version = "v1"

// MinorVersion is the schema revision within the v1 route prefix,
// reported as api_version by GET /v1/healthz and GET /v1/jobs. 1.1
// added precedence edges on the three request documents and the
// structured Error document; every 1.0 request remains valid and
// produces a byte-identical result.
const MinorVersion = "1.1"

// JobState is the lifecycle state of an asynchronous job. States only
// move forward: queued -> running -> {done, failed, cancelled}, with
// the shortcut queued -> cancelled for jobs cancelled before a worker
// picked them up.
type JobState string

const (
	// JobQueued: accepted and waiting for a free executor.
	JobQueued JobState = "queued"
	// JobRunning: an executor is driving the engine under the job's
	// context.
	JobRunning JobState = "running"
	// JobDone: finished successfully; Result holds the document.
	JobDone JobState = "done"
	// JobFailed: the engine returned a non-cancellation error; Error
	// holds the message.
	JobFailed JobState = "failed"
	// JobCancelled: cancelled by DELETE, server drain, or deadline;
	// Error holds the cancellation cause.
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final (done, failed, or
// cancelled).
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobKind names the engine entry point a job drives.
type JobKind string

const (
	KindSolve    JobKind = "solve"
	KindSimulate JobKind = "simulate"
	KindScenario JobKind = "scenario"
)

// CacheInfo is the envelope's cache block, present when the server
// runs with a solve cache. Key is the job's content address (the
// SHA-256 over the canonical instance plus every knob the result
// depends on); ResultHit marks a job answered from the result tier
// without touching the queue. WarmHits/WarmMisses count the Stage-I
// evaluation-table cells derived from warm cached distributions vs
// computed from scratch (solve and scenario jobs; both zero when the
// job never built a table).
type CacheInfo struct {
	Key        string `json:"key"`
	ResultHit  bool   `json:"result_hit"`
	WarmHits   int64  `json:"warm_hits,omitempty"`
	WarmMisses int64  `json:"warm_misses,omitempty"`
}

// Job is the envelope every job endpoint returns. Result is the
// kind-specific document (SolveResult, SimulateResult, ScenarioResult)
// once State is done; Error is set for failed and cancelled jobs.
// Progress reports how far the job has advanced: solve jobs finish in
// one indivisible search and report none, simulate and scenario jobs
// report their Stage-II fan-out. Cache is absent when the server runs
// without a solve cache, so envelopes are unchanged for cacheless
// deployments.
type Job struct {
	ID       string                    `json:"id"`
	Kind     JobKind                   `json:"kind"`
	State    JobState                  `json:"state"`
	Created  time.Time                 `json:"created"`
	Started  *time.Time                `json:"started,omitempty"`
	Finished *time.Time                `json:"finished,omitempty"`
	Progress *tracing.ProgressSnapshot `json:"progress,omitempty"`
	Result   json.RawMessage           `json:"result,omitempty"`
	Error    string                    `json:"error,omitempty"`
	Cache    *CacheInfo                `json:"cache,omitempty"`
}

// JobList is the GET /v1/jobs response, in submission order. The list
// is paginated with ?limit=N&after=<id>: Total counts every job
// matching the filter across all pages, and Next (set only when a
// limit truncated the page) is the ?after= cursor for the next one.
type JobList struct {
	// APIVersion reports the wire schema revision (MinorVersion).
	APIVersion string `json:"api_version"`
	Jobs       []Job  `json:"jobs"`
	Total      int    `json:"total"`
	Next       string `json:"next,omitempty"`
}

// Error codes: the machine-readable classification of every non-2xx
// response. Clients branch on the code; the message is for humans.
const (
	// ErrBadRequest: the request document failed validation (malformed
	// JSON, unknown names, invalid instance, bad DAG edges). Field
	// carries the offending JSON path when one is known.
	ErrBadRequest = "bad_request"
	// ErrNotFound: the named job does not exist.
	ErrNotFound = "not_found"
	// ErrQueueFull: admission rejected the job; retry after the
	// Retry-After header's estimate.
	ErrQueueFull = "queue_full"
	// ErrDraining: the server is shutting down and admits nothing.
	ErrDraining = "draining"
	// ErrInternal: the server failed to admit or journal the job.
	ErrInternal = "internal"
)

// Error is the body of every non-2xx response (v1.1): one structured
// document for all 4xx/5xx outcomes instead of ad-hoc text bodies.
// Field, when set, is the JSON path of the request field at fault in
// the config.Marshal style — "edges[3].from",
// "applications[2].execTimes[0].mean", "techniques[1]" — so clients
// can point at the exact offending input.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Field   string `json:"field,omitempty"`
}

// Health is the GET /v1/healthz response: a structured liveness
// document instead of a bare OK, so orchestrators and load balancers
// can key on saturation and drain state without scraping /metrics.
type Health struct {
	// Status is "ok" while admitting, "degraded" once an append to the
	// job store has failed (a lifecycle transition may be missing from
	// the journal; the error is logged and counted in
	// server.store_errors), and "draining" once shutdown has begun,
	// which takes precedence (Draining carries that fact as a bool).
	Status  string `json:"status"`
	Version string `json:"version"`
	// APIVersion reports the wire schema revision (MinorVersion);
	// Version stays the route prefix.
	APIVersion string `json:"api_version"`
	Draining   bool   `json:"draining"`
	// QueueDepth is the number of jobs waiting for an executor right
	// now, out of QueueCapacity; Inflight is the number currently
	// holding one of the Executors.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	Inflight      int `json:"inflight"`
	Executors     int `json:"executors"`
	// Jobs are the process-lifetime job counters.
	Jobs HealthJobs `json:"jobs"`
	// Cache carries the solve-cache hit counters; absent when the
	// server runs without a cache.
	Cache *HealthCache `json:"cache,omitempty"`
	// Store describes the job-store backend: memory or WAL, journal
	// size, and what the last startup replay recovered.
	Store *HealthStore `json:"store,omitempty"`
}

// HealthStore is the healthz view of the job store (mirrors
// store.Stats; api cannot import internal/store, which imports api).
type HealthStore struct {
	Backend         string `json:"backend"`
	Jobs            int    `json:"jobs"`
	Records         int64  `json:"records"`
	WALBytes        int64  `json:"wal_bytes,omitempty"`
	Fsyncs          int64  `json:"fsyncs,omitempty"`
	ReplayedRecords int64  `json:"replayed_records,omitempty"`
	ReplayedJobs    int64  `json:"replayed_jobs,omitempty"`
	RecoveredJobs   int64  `json:"recovered_jobs,omitempty"`
	TruncatedBytes  int64  `json:"truncated_bytes,omitempty"`
}

// HealthJobs are the lifetime job counts by outcome (submitted counts
// admissions, including cache-replayed ones; rejected counts 429s).
type HealthJobs struct {
	Submitted int64 `json:"submitted"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Rejected  int64 `json:"rejected"`
}

// HealthCache are the solve-cache hit counters: the result tier
// (whole documents replayed at admission) and the warm table tier
// (Stage-I evaluation tables reused across jobs).
type HealthCache struct {
	ResultHits   int64 `json:"result_hits"`
	ResultMisses int64 `json:"result_misses"`
	TableHits    int64 `json:"table_hits"`
	TableMisses  int64 `json:"table_misses"`
}

// SolveRequest submits a Stage-I resource allocation search
// (POST /v1/solve).
type SolveRequest struct {
	// Instance is the problem document; nil means the embedded paper
	// example.
	Instance *config.Instance `json:"instance,omitempty"`
	// Edges are precedence constraints over the batch (v1.1): edge
	// {from, to} means application from must finish before to starts.
	// Non-empty edges override the instance's own; the effective set is
	// echoed in the result's canonical instance, so the job's cache
	// identity includes the topology. Empty leaves the request exactly
	// as in v1.0.
	Edges []config.EdgeSpec `json:"edges,omitempty"`
	// Heuristic names the Stage-I policy (ra.Names lists them); empty
	// means "exhaustive".
	Heuristic string `json:"heuristic,omitempty"`
	// Deadline overrides the instance deadline when positive.
	Deadline float64 `json:"deadline,omitempty"`
	// Seed reseeds the stochastic heuristic, tabu; the deterministic
	// heuristics ignore it. Zero keeps tabu's default seed.
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds the search's worker pool; 0 means the server
	// default. Results are identical for any value.
	Workers int `json:"workers,omitempty"`
	// PMFBackend selects the Stage-I distribution representation:
	// "sparse" (the default: exact pulses, bit-identical to earlier
	// releases) or "grid" (dense fixed-step lattice, faster within a
	// documented quantization-error bound). Empty means the server's
	// default backend.
	PMFBackend string `json:"pmf_backend,omitempty"`
}

// Assignment is the wire form of one application's processor group.
type Assignment struct {
	// Type indexes the instance's processor types.
	Type int `json:"type"`
	// Procs is the number of processors of that type.
	Procs int `json:"procs"`
}

// SolveResult is the result document of a solve job.
type SolveResult struct {
	// Heuristic is the report label of the policy that produced the
	// allocation (the registry name).
	Heuristic string `json:"heuristic"`
	// Allocation maps each application (by batch index) to its group.
	Allocation []Assignment `json:"allocation"`
	// Phi1 is the Stage-I robustness: on an independent batch, the
	// joint probability that every application meets the deadline under
	// the reference availability. On a DAG it is a lower bound on that
	// probability (up to compaction error): the composition treats
	// paths through a shared ancestor as independent, and for
	// completion times that grow with independent inputs that errs low.
	Phi1 float64 `json:"phi1"`
	// PerApp[i] is Pr(T_i <= deadline) for application i.
	PerApp []float64 `json:"perApp"`
	// ExpectedTimes[i] is E[T_i] under the reference availability.
	ExpectedTimes []float64 `json:"expectedTimes"`
	// Instance echoes the canonical rendering (config.Marshal) of the
	// submitted instance, when one was submitted.
	Instance json.RawMessage `json:"instance,omitempty"`
}

// SimulateRequest submits a Stage-II Monte-Carlo evaluation of a fixed
// allocation under one availability case (POST /v1/simulate).
type SimulateRequest struct {
	// Instance is the problem document; nil means the embedded paper
	// example.
	Instance *config.Instance `json:"instance,omitempty"`
	// Edges are precedence constraints over the batch (v1.1; see
	// SolveRequest.Edges): the simulation then releases each
	// application only when all its predecessors have finished, per
	// repetition.
	Edges []config.EdgeSpec `json:"edges,omitempty"`
	// Allocation fixes each application's processor group; required.
	Allocation []Assignment `json:"allocation"`
	// Techniques names the DLS technique set, each resolved by
	// dls.ByName (case-insensitive; dls.Names lists the registry); an
	// unknown name answers 400 with field "techniques[k]". Empty means
	// the paper's robust set {FAC, WF, AWF-B, AF}.
	Techniques []string `json:"techniques,omitempty"`
	// Case names one of the instance's declared availability cases;
	// empty or "reference" means the reference availability.
	Case string `json:"case,omitempty"`
	// Reps is the number of repetitions per (application, technique)
	// cell; 0 means the paper default (60).
	Reps int `json:"reps,omitempty"`
	// Seed drives all Stage-II randomness; seeded requests are
	// bit-identical to the equivalent direct library call.
	Seed uint64 `json:"seed,omitempty"`
	// Overhead overrides the per-chunk scheduling overhead when
	// non-nil (default 1 time unit).
	Overhead *float64 `json:"overhead,omitempty"`
	// IterCV overrides the iteration-time coefficient of variation
	// when non-nil (default 0.3).
	IterCV *float64 `json:"iterCV,omitempty"`
	// TimeSteps runs each application as a multi-sweep time-stepping
	// loop (0 or 1: single sweep).
	TimeSteps int `json:"timeSteps,omitempty"`
	// PMFBackend selects the distribution representation of any
	// Stage-I evaluation embedded in the job ("sparse" or "grid";
	// empty means the server default). The Monte-Carlo replications
	// themselves are backend-independent.
	PMFBackend string `json:"pmf_backend,omitempty"`
}

// TechOutcome is one (application, technique) cell of a Stage-II
// result.
type TechOutcome struct {
	Technique string  `json:"technique"`
	MeanTime  float64 `json:"meanTime"`
	StdDev    float64 `json:"stdDev"`
	PrMeet    float64 `json:"prMeet"`
	Meets     bool    `json:"meets"`
}

// CaseResult is the Stage-II outcome of one availability case.
type CaseResult struct {
	// Case is the availability case label.
	Case string `json:"case"`
	// Decrease is the case's weighted-availability decrease
	// 1 - E[A_case]/E[A_hat].
	Decrease float64 `json:"decrease"`
	// PerApp[i] lists each technique's outcome for application i.
	PerApp [][]TechOutcome `json:"perApp"`
	// Best[i] is the fastest deadline-meeting technique for
	// application i, or "" if none met the deadline.
	Best []string `json:"best"`
	// AllMeet reports whether every application had a deadline-meeting
	// technique.
	AllMeet bool `json:"allMeet"`
}

// SimulateResult is the result document of a simulate job.
type SimulateResult struct {
	CaseResult
	// Instance echoes the canonical rendering of the submitted
	// instance, when one was submitted.
	Instance json.RawMessage `json:"instance,omitempty"`
}

// ScenarioRequest submits a full dual-stage framework run
// (POST /v1/scenario): Stage I plus Stage-II simulations over every
// availability case.
type ScenarioRequest struct {
	// Instance is the problem document; nil means the embedded paper
	// example with the paper's four availability cases. An instance
	// without declared cases is evaluated under the reference
	// availability plus 80% and 60% degradations (core.FallbackCases).
	Instance *config.Instance `json:"instance,omitempty"`
	// Edges are precedence constraints over the batch (v1.1; see
	// SolveRequest.Edges): Stage I optimizes the DAG phi_1 and every
	// Stage-II case releases applications along the edges.
	Edges []config.EdgeSpec `json:"edges,omitempty"`
	// Scenario selects one of the paper's four scenarios (1-4) when IM
	// and RAS are empty; 0 means 4 (robust-robust).
	Scenario int `json:"scenario,omitempty"`
	// IM names a custom Stage-I heuristic (overrides Scenario).
	IM string `json:"im,omitempty"`
	// RAS names a custom Stage-II technique set (overrides Scenario),
	// each resolved by dls.ByName; an unknown name answers 400 with
	// field "ras[k]".
	RAS []string `json:"ras,omitempty"`
	// Reps is the number of Stage-II repetitions per cell; 0 means the
	// paper default (60).
	Reps int `json:"reps,omitempty"`
	// Seed drives all Stage-II randomness.
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds the Stage-I worker pool; 0 means the server
	// default. Results are identical for any value.
	Workers int `json:"workers,omitempty"`
	// PMFBackend selects the Stage-I distribution representation
	// ("sparse" or "grid"; empty means the server default).
	PMFBackend string `json:"pmf_backend,omitempty"`
}

// StageIResult is the Stage-I portion of a scenario result.
type StageIResult struct {
	Allocation    []Assignment `json:"allocation"`
	Phi1          float64      `json:"phi1"`
	PerApp        []float64    `json:"perApp"`
	ExpectedTimes []float64    `json:"expectedTimes"`
}

// ScenarioResult is the result document of a scenario job.
type ScenarioResult struct {
	// Scenario is the scenario's report label.
	Scenario string `json:"scenario"`
	// StageI carries the initial mapping and its robustness.
	StageI StageIResult `json:"stageI"`
	// Cases holds one CaseResult per evaluated availability case.
	Cases []CaseResult `json:"cases"`
	// Rho1 and Rho2 form the paper's system robustness tuple.
	Rho1 float64 `json:"rho1"`
	Rho2 float64 `json:"rho2"`
	// Instance echoes the canonical rendering of the submitted
	// instance, when one was submitted.
	Instance json.RawMessage `json:"instance,omitempty"`
}

// FromAllocation converts a model allocation to its wire form.
func FromAllocation(al sysmodel.Allocation) []Assignment {
	out := make([]Assignment, len(al))
	for i, as := range al {
		out[i] = Assignment{Type: as.Type, Procs: as.Procs}
	}
	return out
}

// ToAllocation converts a wire allocation back to the model form.
func ToAllocation(as []Assignment) sysmodel.Allocation {
	out := make(sysmodel.Allocation, len(as))
	for i, a := range as {
		out[i] = sysmodel.Assignment{Type: a.Type, Procs: a.Procs}
	}
	return out
}

// FromStageI converts a Stage-I evaluation to its wire form.
func FromStageI(r *robustness.StageIResult) StageIResult {
	return StageIResult{
		Allocation:    FromAllocation(r.Alloc),
		Phi1:          r.Phi1,
		PerApp:        append([]float64(nil), r.PerApp...),
		ExpectedTimes: append([]float64(nil), r.ExpectedTimes...),
	}
}

// FromTechOutcome converts one core cell outcome to its wire form.
func FromTechOutcome(o core.TechOutcome) TechOutcome {
	return TechOutcome{
		Technique: o.Technique,
		MeanTime:  o.MeanTime,
		StdDev:    o.StdDev,
		PrMeet:    o.PrMeet,
		Meets:     o.Meets,
	}
}

// FromCaseResult converts one core case result to its wire form.
func FromCaseResult(cr *core.CaseResult) CaseResult {
	out := CaseResult{
		Case:     cr.Case.Name,
		Decrease: cr.Decrease,
		PerApp:   make([][]TechOutcome, len(cr.PerApp)),
		Best:     append([]string(nil), cr.Best...),
		AllMeet:  cr.AllMeet,
	}
	for i, outs := range cr.PerApp {
		row := make([]TechOutcome, len(outs))
		for j, o := range outs {
			row[j] = FromTechOutcome(o)
		}
		out.PerApp[i] = row
	}
	return out
}

// FromScenarioResult converts a full scenario evaluation to its wire
// form, including the derived system robustness tuple.
func FromScenarioResult(res *core.ScenarioResult) ScenarioResult {
	out := ScenarioResult{
		Scenario: res.Scenario,
		StageI:   FromStageI(res.StageI),
		Cases:    make([]CaseResult, len(res.Cases)),
	}
	for i := range res.Cases {
		out.Cases[i] = FromCaseResult(&res.Cases[i])
	}
	tuple := core.SystemRobustness(res)
	out.Rho1, out.Rho2 = tuple.Rho1, tuple.Rho2
	return out
}
