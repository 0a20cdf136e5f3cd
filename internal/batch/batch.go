// Package batch models the operational substrate of Stage I: scientific
// applications arriving at random intervals in the queue of a resource
// manager, grouped into batches, allocated by a Stage-I heuristic, and
// executed batch-after-batch on the heterogeneous system (the paper's
// Section III.B narrative: "as the applications arrive, their
// assignment to available resources is made in batches", and the system
// makespan Psi "represents the time when the next batch of applications
// will require resources").
//
// The simulation advances in whole batches: while one batch executes,
// arrivals accumulate; when the batch completes (after its makespan),
// the queued applications form the next batch. Per-batch makespans are
// produced by a pluggable Executor, which lets the same queue dynamics
// run against the analytic Stage-I estimate or the full Stage-II
// simulator.
package batch

import (
	"context"
	"fmt"
	"math"

	"cdsf/internal/cache"
	"cdsf/internal/pmf"
	"cdsf/internal/ra"
	"cdsf/internal/rng"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
	"cdsf/internal/tracing"
)

// Job is one application instance waiting in the resource manager's
// queue.
type Job struct {
	// ID is the arrival sequence number (0-based).
	ID int
	// App is the application template.
	App sysmodel.Application
	// Arrival is the simulated arrival time.
	Arrival float64
	// Start is the time the job's batch began executing.
	Start float64
	// Finish is the completion time of the job's batch (the paper's
	// batch-synchronous model frees all resources together).
	Finish float64
	// Batch is the index of the batch the job ran in.
	Batch int
}

// Wait returns the job's queueing delay (Start - Arrival).
func (j *Job) Wait() float64 { return j.Start - j.Arrival }

// ArrivalProcess generates the application stream.
type ArrivalProcess struct {
	// Interarrival is the distribution of the gaps between arrivals
	// (e.g. stats.Exponential for a Poisson stream).
	Interarrival stats.Dist
	// Templates are the application kinds arriving, sampled uniformly
	// ("different instances of the same application" per the paper).
	Templates []sysmodel.Application
}

// Executor turns an allocated batch into a makespan. Implementations:
// ExpectedExecutor (Stage-I analytics) and the Stage-II simulator
// adapter in package core.
type Executor interface {
	// Execute returns the batch makespan for the allocation. Executors
	// doing substantial work should observe ctx and return its error
	// when cancelled; cheap analytic executors may ignore it.
	Execute(ctx context.Context, sys *sysmodel.System, b sysmodel.Batch, alloc sysmodel.Allocation, seed uint64) (float64, error)
}

// ExpectedExecutor estimates the batch makespan analytically as the
// maximum of the per-application expected completion times under the
// system's availability PMFs.
type ExpectedExecutor struct{}

// Execute implements Executor; the analytic estimate is cheap enough
// that ctx is not consulted.
func (ExpectedExecutor) Execute(_ context.Context, sys *sysmodel.System, b sysmodel.Batch, alloc sysmodel.Allocation, _ uint64) (float64, error) {
	if err := alloc.Validate(sys, b); err != nil {
		return 0, err
	}
	max := 0.0
	for i := range b {
		as := alloc[i]
		m := b[i].CompletionPMF(as.Type, as.Procs, sys.Types[as.Type].Avail).Mean()
		if m > max {
			max = m
		}
	}
	return max, nil
}

// Config describes one resource-manager simulation.
type Config struct {
	// Sys is the heterogeneous system.
	Sys *sysmodel.System
	// Arrivals generates the job stream.
	Arrivals ArrivalProcess
	// Heuristic allocates each batch (Stage I).
	Heuristic ra.Heuristic
	// Deadline is the per-batch deadline handed to the heuristic,
	// measured from batch start.
	Deadline float64
	// MaxBatch caps the number of applications grouped into one batch;
	// <= 0 means unbounded (all queued jobs form the batch).
	MaxBatch int
	// Jobs is the total number of arrivals to simulate; must be > 0.
	Jobs int
	// Executor produces per-batch makespans; nil uses ExpectedExecutor.
	Executor Executor
	// Policy decides when queued jobs form a batch; nil schedules
	// everything queued immediately (GreedyPolicy).
	Policy Policy
	// Backend selects the PMF representation for each batch's Stage-I
	// search; the zero value is the exact sparse backend.
	Backend pmf.Backend
	// Cache, when non-nil, shares warm completion-time distributions
	// across batches that contain the same applications — common when
	// the arrival stream recycles templates. Results are bit-identical
	// with it on or off.
	Cache *cache.Cache
	// Seed drives arrivals, template choice, and executor seeds.
	Seed uint64
	// Obs receives each batch's Stage-I search instrumentation (see
	// ra.Problem.Obs); the zero Scope records nothing. The executor
	// carries its own configuration, so a simulating executor takes its
	// scope there (core.SimExecutor's Config.Obs).
	Obs tracing.Scope
}

// BatchRecord summarizes one executed batch.
type BatchRecord struct {
	// Index is the batch sequence number.
	Index int
	// Jobs is the number of applications in the batch.
	Jobs int
	// Start and Makespan delimit the execution.
	Start, Makespan float64
	// Phi1 is the Stage-I robustness of the chosen allocation.
	Phi1 float64
	// MetDeadline reports Makespan <= Deadline.
	MetDeadline bool
}

// Result aggregates a resource-manager simulation.
type Result struct {
	// Jobs holds every simulated job with its timing.
	Jobs []Job
	// Batches holds one record per executed batch.
	Batches []BatchRecord
	// MeanWait is the mean job queueing delay.
	MeanWait float64
	// MeanBatchSize is the mean number of jobs per batch.
	MeanBatchSize float64
	// DeadlineRate is the fraction of batches meeting the deadline.
	DeadlineRate float64
	// MakespanTotal is the completion time of the last batch.
	MakespanTotal float64
}

// RunContext is Run under a context: cancellation is checked before
// each batch is scheduled, the Stage-I heuristic runs through
// ra.SolveContext, and ctx reaches the Executor, so a cancelled
// simulation stops at a batch boundary (or inside a cancellation-aware
// executor) and returns an error wrapping ctx.Err().
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Sys == nil {
		return nil, fmt.Errorf("batch: nil system")
	}
	if cfg.Jobs <= 0 {
		return nil, fmt.Errorf("batch: %d jobs", cfg.Jobs)
	}
	if len(cfg.Arrivals.Templates) == 0 {
		return nil, fmt.Errorf("batch: no application templates")
	}
	if cfg.Arrivals.Interarrival == nil {
		return nil, fmt.Errorf("batch: nil interarrival distribution")
	}
	if cfg.Heuristic == nil {
		return nil, fmt.Errorf("batch: nil heuristic")
	}
	exec := cfg.Executor
	if exec == nil {
		exec = ExpectedExecutor{}
	}
	r := rng.New(cfg.Seed)

	// Generate the arrival stream.
	jobs := make([]Job, cfg.Jobs)
	now := 0.0
	for i := range jobs {
		now += cfg.Arrivals.Interarrival.Sample(r)
		tmpl := cfg.Arrivals.Templates[r.Intn(len(cfg.Arrivals.Templates))]
		jobs[i] = Job{ID: i, App: tmpl, Arrival: now}
	}

	policy := cfg.Policy
	if policy == nil {
		policy = GreedyPolicy{}
	}

	res := &Result{}
	clock := 0.0
	next := 0 // first unscheduled job
	for next < len(jobs) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("batch: canceled after %d/%d jobs in %d batches: %w",
				next, len(jobs), len(res.Batches), err)
		}
		// The resource manager waits until at least one job is queued.
		if jobs[next].Arrival > clock {
			clock = jobs[next].Arrival
		}
		// Let the batching policy decide how many queued jobs to take,
		// possibly waiting for more arrivals first.
		var end int
		for {
			end = next
			for end < len(jobs) && jobs[end].Arrival <= clock {
				end++
			}
			haveMore := end < len(jobs)
			nextArrival := math.Inf(1)
			if haveMore {
				nextArrival = jobs[end].Arrival
			}
			take, start := policy.Next(end-next, clock, nextArrival, haveMore)
			if start > clock {
				clock = start
			}
			if take > 0 {
				if end > next+take {
					end = next + take
				}
				break
			}
			if !haveMore {
				// Nothing more will arrive; schedule what is queued.
				break
			}
		}
		if cfg.MaxBatch > 0 && end-next > cfg.MaxBatch {
			end = next + cfg.MaxBatch
		}
		// A batch can never exceed the processor count: every
		// application needs at least one processor for the whole batch.
		if limit := cfg.Sys.TotalProcessors(); end-next > limit {
			end = next + limit
		}
		b := make(sysmodel.Batch, 0, end-next)
		for i := next; i < end; i++ {
			b = append(b, jobs[i].App)
		}
		prob := &ra.Problem{Sys: cfg.Sys, Batch: b, Deadline: cfg.Deadline, Backend: cfg.Backend, Cache: cfg.Cache, Obs: cfg.Obs}
		alloc, err := ra.SolveContext(ctx, cfg.Heuristic, prob)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", len(res.Batches), err)
		}
		phi, err := prob.Objective(alloc)
		if err != nil {
			return nil, err
		}
		mk, err := exec.Execute(ctx, cfg.Sys, b, alloc, r.Uint64())
		if err != nil {
			return nil, err
		}
		rec := BatchRecord{
			Index:       len(res.Batches),
			Jobs:        end - next,
			Start:       clock,
			Makespan:    mk,
			Phi1:        phi,
			MetDeadline: mk <= cfg.Deadline,
		}
		for i := next; i < end; i++ {
			jobs[i].Start = clock
			jobs[i].Finish = clock + mk
			jobs[i].Batch = rec.Index
		}
		res.Batches = append(res.Batches, rec)
		clock += mk
		next = end
	}

	res.Jobs = jobs
	res.MakespanTotal = clock
	sumWait, met := 0.0, 0
	for i := range jobs {
		sumWait += jobs[i].Wait()
	}
	for _, b := range res.Batches {
		if b.MetDeadline {
			met++
		}
	}
	res.MeanWait = sumWait / float64(len(jobs))
	res.MeanBatchSize = float64(len(jobs)) / float64(len(res.Batches))
	res.DeadlineRate = float64(met) / float64(len(res.Batches))
	return res, nil
}
