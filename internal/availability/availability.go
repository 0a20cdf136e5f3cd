// Package availability provides runtime availability models for the
// Stage-II simulator.
//
// Stage I reasons about availability through PMFs; Stage II needs the
// availability of each individual processor as a function of simulated
// time. The paper's testbed drew this from historical usage logs of a
// real non-dedicated system; this package substitutes synthetic models
// driven by the same PMFs (see DESIGN.md, "Substitutions"):
//
//   - Static: one draw per processor, constant for the whole run — the
//     weakest dynamics, matching Stage I's one-shot convolution.
//   - Redraw: the availability of each processor is re-drawn from the
//     PMF every fixed interval, modeling a machine whose external load
//     changes episodically.
//   - Markov: a discrete-time Markov chain over the PMF's support whose
//     stationary distribution equals the PMF, with a persistence
//     parameter controlling how bursty the external load is.
//   - Trace: replay of an explicit piecewise-constant trace, for tests
//     and for injecting adversarial perturbation patterns.
//
// All models implement Model; a Model manufactures one independent
// Process per processor. A Process answers two questions the simulator
// asks: what is the availability now, and how long does it take to
// complete a given amount of work starting now (integrating availability
// over time). Processes builds a whole group's processes at once and
// reuses the ones a previous run left, which is how the simulator keeps
// its repetitions free of allocation.
package availability

import (
	"fmt"
	"math"

	"cdsf/internal/pmf"
	"cdsf/internal/rng"
)

// Process is the availability of a single processor over simulated time.
// Implementations are piecewise constant. Queries must use
// non-decreasing start times per Process (the simulator's event order
// guarantees this for the workers it owns).
type Process interface {
	// At returns the fractional availability in (0, 1] at time t.
	At(t float64) float64
	// FinishTime returns the time at which `work` units of dedicated
	// computation complete if started at time t, accounting for the
	// availability profile from t onward: a processor at availability a
	// delivers work at rate a.
	FinishTime(t, work float64) float64
}

// Model manufactures independent availability Processes for processors
// of one type.
type Model interface {
	// NewProcess returns the availability process for one processor,
	// using r for any randomness. Each call must return an independent
	// process.
	NewProcess(r *rng.Source) Process
	// Name identifies the model in reports.
	Name() string
}

// GroupScoped is implemented by models whose processes share per-run
// state (e.g. SharedLoad's common load chain). The simulator calls
// ResetGroup at the start of every run so repetitions stay independent,
// and it must never run repetitions of a group-scoped model
// concurrently — the shared state would race.
type GroupScoped interface {
	// ResetGroup discards the model's shared per-run state so the next
	// NewProcess starts fresh.
	ResetGroup()
}

// Processes sets ps to the processes len(ps) successive
// m.NewProcess(r) calls return, drawing the same values from r. A
// Static, Redraw or Markov process that a previous call left in ps is
// rebuilt in place rather than allocated again, so a simulator that
// runs many repetitions of one group builds its processes once. A
// GroupScoped model's caller resets the group first, as it would before
// calling NewProcess.
func Processes(m Model, r *rng.Source, ps []Process) {
	for i := range ps {
		switch m := m.(type) {
		case Static:
			p, ok := ps[i].(*constProcess)
			if !ok {
				p = new(constProcess)
				ps[i] = p
			}
			p.reset(m, r)
		case Redraw:
			p, ok := ps[i].(*redrawProcess)
			if !ok {
				p = new(redrawProcess)
				ps[i] = p
			}
			p.reset(m, r)
		case Markov:
			p, ok := ps[i].(*markovProcess)
			if !ok {
				p = new(markovProcess)
				ps[i] = p
			}
			p.reset(m, r)
		default:
			ps[i] = m.NewProcess(r)
		}
	}
}

// ---------------------------------------------------------------------
// Static model

// Static draws one availability per processor from a PMF and keeps it
// constant for the whole run.
type Static struct {
	PMF pmf.PMF
}

// NewProcess draws the constant availability.
func (m Static) NewProcess(r *rng.Source) Process {
	p := new(constProcess)
	p.reset(m, r)
	return p
}

// Name returns "static".
func (m Static) Name() string { return "static" }

type constProcess float64

// reset makes *p the process m.NewProcess(r) returns.
func (p *constProcess) reset(m Static, r *rng.Source) { *p = constProcess(m.PMF.Sample(r)) }

func (c constProcess) At(float64) float64 { return float64(c) }

func (c constProcess) FinishTime(t, work float64) float64 {
	return t + work/float64(c)
}

// ---------------------------------------------------------------------
// Redraw model

// Redraw re-draws the availability from the PMF every Interval time
// units, independently per processor.
type Redraw struct {
	PMF pmf.PMF
	// Interval is the length of each constant-availability epoch; it
	// must be positive.
	Interval float64
}

// NewProcess returns an independent re-drawing process.
func (m Redraw) NewProcess(r *rng.Source) Process {
	p := new(redrawProcess)
	p.reset(m, r)
	return p
}

// Name returns "redraw".
func (m Redraw) Name() string { return fmt.Sprintf("redraw(%g)", m.Interval) }

type redrawProcess struct {
	sampler  *pmf.Sampler
	interval float64
	r        rng.Source
	epoch    int64 // index of the epoch cur belongs to; -1 before first use
	cur      float64
}

// reset makes p the process m.NewProcess(r) returns.
func (p *redrawProcess) reset(m Redraw, r *rng.Source) {
	if m.Interval <= 0 {
		panic(fmt.Sprintf("availability: redraw interval %v not positive", m.Interval))
	}
	*p = redrawProcess{sampler: m.PMF.Sampler(), interval: m.Interval, cur: -1, epoch: -1}
	p.r.Seed(r.Uint64())
}

func (p *redrawProcess) avail(epoch int64) float64 {
	if epoch != p.epoch {
		if epoch < p.epoch {
			// Queries must be non-decreasing in time; a stale epoch means
			// the caller broke that contract.
			panic("availability: redraw process queried backwards in time")
		}
		// Skip forward, drawing once per epoch so two processes with the
		// same seed but different query patterns stay identical.
		for p.epoch < epoch {
			p.cur = p.sampler.Sample(&p.r)
			p.epoch++
		}
	}
	return p.cur
}

func (p *redrawProcess) At(t float64) float64 {
	return p.avail(int64(math.Floor(t / p.interval)))
}

func (p *redrawProcess) FinishTime(t, work float64) float64 {
	// The epoch index is tracked explicitly rather than recomputed from
	// t: floor(((e+1)*interval)/interval) can round back to e, which
	// would stall the loop at an epoch boundary with zero capacity.
	epoch := int64(math.Floor(t / p.interval))
	for work > 1e-12 {
		a := p.avail(epoch)
		end := float64(epoch+1) * p.interval
		capacity := (end - t) * a
		if capacity >= work {
			return t + work/a
		}
		work -= capacity
		t = end
		epoch++
	}
	return t
}

// ---------------------------------------------------------------------
// Markov model

// Markov is a discrete-time Markov chain over the support of a PMF: at
// every Interval boundary the process keeps its state with probability
// Persistence and otherwise jumps to a state drawn from the PMF. The
// stationary distribution is exactly the PMF, while Persistence controls
// burst length (0 reduces to Redraw).
//
// NewMarkov builds the PMF's alias sampler once and shares it with every
// process of the model; a Markov literal works too, but each of its
// processes builds its own sampler.
type Markov struct {
	PMF pmf.PMF
	// Interval is the chain step length; it must be positive.
	Interval float64
	// Persistence in [0, 1) is the probability of keeping the current
	// state at each step.
	Persistence float64

	// sampler is NewMarkov's sampler over PMF; nil in a literal.
	sampler *pmf.Sampler
}

// NewMarkov returns the Markov model over p with its alias sampler
// built once. The sampler is read-only, so processes of one model may
// run on concurrent goroutines; a model whose PMF field is reassigned
// afterwards keeps sampling the old PMF.
func NewMarkov(p pmf.PMF, interval, persistence float64) Markov {
	return Markov{PMF: p, Interval: interval, Persistence: persistence, sampler: p.Sampler()}
}

// NewProcess returns an independent chain started from the stationary
// distribution.
func (m Markov) NewProcess(r *rng.Source) Process {
	p := new(markovProcess)
	p.reset(m, r)
	return p
}

// Name returns "markov".
func (m Markov) Name() string {
	return fmt.Sprintf("markov(%g,%.2f)", m.Interval, m.Persistence)
}

type markovProcess struct {
	sampler     *pmf.Sampler
	interval    float64
	persistence float64
	r           rng.Source
	epoch       int64
	cur         float64
}

// reset makes p the process m.NewProcess(r) returns: a chain on its own
// stream split from r, started from a stationary draw.
func (p *markovProcess) reset(m Markov, r *rng.Source) {
	if m.Interval <= 0 {
		panic(fmt.Sprintf("availability: markov interval %v not positive", m.Interval))
	}
	if m.Persistence < 0 || m.Persistence >= 1 {
		panic(fmt.Sprintf("availability: markov persistence %v outside [0,1)", m.Persistence))
	}
	sampler := m.sampler
	if sampler == nil {
		sampler = m.PMF.Sampler()
	}
	*p = markovProcess{sampler: sampler, interval: m.Interval, persistence: m.Persistence}
	p.r.Seed(r.Uint64())
	p.cur = sampler.Sample(&p.r)
}

func (p *markovProcess) avail(epoch int64) float64 {
	if epoch < p.epoch {
		panic("availability: markov process queried backwards in time")
	}
	for p.epoch < epoch {
		if p.r.Float64() >= p.persistence {
			p.cur = p.sampler.Sample(&p.r)
		}
		p.epoch++
	}
	return p.cur
}

func (p *markovProcess) At(t float64) float64 {
	return p.avail(int64(math.Floor(t / p.interval)))
}

func (p *markovProcess) FinishTime(t, work float64) float64 {
	// Explicit epoch tracking; see redrawProcess.FinishTime.
	epoch := int64(math.Floor(t / p.interval))
	for work > 1e-12 {
		a := p.avail(epoch)
		end := float64(epoch+1) * p.interval
		capacity := (end - t) * a
		if capacity >= work {
			return t + work/a
		}
		work -= capacity
		t = end
		epoch++
	}
	return t
}
