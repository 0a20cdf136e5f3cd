package availability

import (
	"fmt"
	"math"

	"cdsf/internal/rng"
)

// Blackout wraps a base availability model with random full outages:
// with probability Prob, each epoch of a processor is blacked out
// (availability pinned to a floor barely above zero). It is the
// failure-injection stressor for Stage-II techniques — a blacked-out
// worker holding a large chunk is exactly the scenario robust DLS must
// absorb. Outages are per-processor and independent.
type Blackout struct {
	// Base supplies the availability between outages.
	Base Model
	// Prob in [0, 1) is the per-epoch outage probability.
	Prob float64
	// Interval is the outage epoch length; it must be positive.
	Interval float64
}

// blackoutFloor is the availability during an outage: zero is not
// representable because FinishTime must stay finite.
const blackoutFloor = 1e-3

// NewProcess wraps a base process with an outage overlay.
func (m Blackout) NewProcess(r *rng.Source) Process {
	if m.Base == nil {
		panic("availability: blackout with nil base model")
	}
	if m.Prob < 0 || m.Prob >= 1 {
		panic(fmt.Sprintf("availability: blackout probability %v outside [0,1)", m.Prob))
	}
	if m.Interval <= 0 {
		panic(fmt.Sprintf("availability: blackout interval %v not positive", m.Interval))
	}
	p := &blackoutProcess{
		base:     m.Base.NewProcess(r),
		prob:     m.Prob,
		interval: m.Interval,
		epoch:    -1,
	}
	p.r.Seed(r.Uint64())
	return p
}

// Name identifies the model in reports.
func (m Blackout) Name() string {
	return fmt.Sprintf("blackout(%.2f,%g)+%s", m.Prob, m.Interval, m.Base.Name())
}

type blackoutProcess struct {
	base     Process
	r        rng.Source
	prob     float64
	interval float64
	epoch    int64
	out      bool
}

// outage reports whether the given epoch is blacked out, drawing each
// epoch's state once in order.
func (p *blackoutProcess) outage(epoch int64) bool {
	if epoch < p.epoch {
		// Backwards queries get the current state (worker clocks within
		// one run diverge by less than an interval in practice).
		return p.out
	}
	for p.epoch < epoch {
		p.out = p.r.Float64() < p.prob
		p.epoch++
	}
	return p.out
}

func (p *blackoutProcess) At(t float64) float64 {
	a := p.base.At(t)
	if p.outage(int64(math.Floor(t / p.interval))) {
		return blackoutFloor
	}
	return a
}

func (p *blackoutProcess) FinishTime(t, work float64) float64 {
	// Walk outage epochs; within each epoch delegate capacity
	// accounting to the base process via its own At/FinishTime on the
	// sub-interval. For simplicity and robustness the base availability
	// is sampled at the epoch start (the base's own epochs are usually
	// no shorter than the outage interval).
	epoch := int64(math.Floor(t / p.interval))
	for work > 1e-12 {
		a := p.base.At(t)
		if p.outage(epoch) {
			a = blackoutFloor
		}
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
