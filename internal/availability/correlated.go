package availability

import (
	"fmt"
	"math"

	"cdsf/internal/pmf"
	"cdsf/internal/rng"
)

// SharedLoad models correlated availability — the paper's future-work
// question "exploring the possible correlation between the
// availabilities for different processor types". All processes created
// by the same SharedLoad instance observe one common load factor (a
// Markov chain on the shared PMF) multiplied by an independent
// idiosyncratic factor per processor:
//
//	avail_i(t) = clamp(shared(t) * idio_i(t), minAvail, 1)
//
// With Mix = 1 every processor tracks the shared factor exactly
// (perfect correlation); with Mix = 0 the model degenerates to
// independent Markov processes on Idio.
type SharedLoad struct {
	// Shared is the PMF of the system-wide load factor.
	Shared pmf.PMF
	// Idio is the PMF of each processor's own availability.
	Idio pmf.PMF
	// Mix in [0, 1] blends the shared factor in geometrically:
	// avail = shared^Mix * idio.
	Mix float64
	// Interval is the epoch length of both chains; it must be positive.
	Interval float64
	// Persistence in [0, 1) is the per-epoch hold probability of both
	// chains.
	Persistence float64

	// shared is the one chain common to all processes of this model
	// instance; it is created lazily on the first NewProcess call.
	shared *sharedChain
}

// minAvail floors the combined availability so FinishTime stays finite.
const minAvail = 1e-3

// NewProcess returns a process whose availability is the blend of the
// shared chain and a fresh idiosyncratic chain. The first call creates
// the shared chain from r; subsequent calls reuse it, which correlates
// every process of this model value (use one SharedLoad per experiment,
// passed by pointer).
func (m *SharedLoad) NewProcess(r *rng.Source) Process {
	if m.Interval <= 0 {
		panic(fmt.Sprintf("availability: shared-load interval %v not positive", m.Interval))
	}
	if m.Mix < 0 || m.Mix > 1 {
		panic(fmt.Sprintf("availability: shared-load mix %v outside [0,1]", m.Mix))
	}
	if m.Persistence < 0 || m.Persistence >= 1 {
		panic(fmt.Sprintf("availability: shared-load persistence %v outside [0,1)", m.Persistence))
	}
	if m.shared == nil {
		m.shared = new(sharedChain)
		m.shared.chain.reset(Markov{PMF: m.Shared, Interval: m.Interval, Persistence: m.Persistence}, r)
	}
	idio := Markov{PMF: m.Idio, Interval: m.Interval, Persistence: m.Persistence}.
		NewProcess(r).(*markovProcess)
	return &sharedProcess{shared: m.shared, idio: idio, mix: m.Mix, interval: m.Interval}
}

// Name identifies the model in reports.
func (m *SharedLoad) Name() string {
	return fmt.Sprintf("sharedload(mix=%.2f,%g,%.2f)", m.Mix, m.Interval, m.Persistence)
}

// ResetGroup discards the shared chain so the next NewProcess starts a
// fresh one. The simulator calls this at the start of every run, which
// keeps repetitions independent while processes within one run stay
// correlated. SharedLoad is therefore not safe for concurrent runs —
// it implements GroupScoped, and sim.RunMany detects that and executes
// its repetitions sequentially.
func (m *SharedLoad) ResetGroup() { m.shared = nil }

var _ GroupScoped = (*SharedLoad)(nil)

// sharedChain is the common load factor of one run: a Markov chain
// advanced in epoch order that keeps every value it has taken, so each
// process reads the state of the epoch it asks for however far another
// process has advanced the chain. That makes every process a function
// of time: a worker whose chunk ends many epochs ahead (a STATIC chunk
// spans the whole loop) cannot hand the workers still behind it a
// future load factor.
type sharedChain struct {
	chain  markovProcess
	values []float64 // values[e] is the chain's state in epoch e
}

// at returns the chain's state in epoch e >= 0.
func (c *sharedChain) at(epoch int64) float64 {
	for int64(len(c.values)) <= epoch {
		c.values = append(c.values, c.chain.avail(int64(len(c.values))))
	}
	return c.values[epoch]
}

type sharedProcess struct {
	shared   *sharedChain
	idio     *markovProcess
	mix      float64
	interval float64
}

// at returns the blended availability for an epoch.
func (p *sharedProcess) at(epoch int64) float64 {
	sh := p.shared.at(epoch)
	id := p.idio.avail(epoch)
	a := math.Pow(sh, p.mix) * id
	if a < minAvail {
		a = minAvail
	}
	if a > 1 {
		a = 1
	}
	return a
}

func (p *sharedProcess) At(t float64) float64 {
	return p.at(int64(math.Floor(t / p.interval)))
}

func (p *sharedProcess) FinishTime(t, work float64) float64 {
	// Explicit epoch tracking; see redrawProcess.FinishTime.
	epoch := int64(math.Floor(t / p.interval))
	for work > 1e-12 {
		a := p.at(epoch)
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
