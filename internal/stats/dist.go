// Package stats is the statistics substrate of the CDSF reproduction.
//
// It provides the small set of probability distributions, summary
// statistics, and histogram utilities that the paper's stochastic model
// requires: normal distributions for single-processor execution times
// (paper Table III generates PMFs by sampling Normal(mu, mu/10)),
// exponential inter-arrival times for the batch substrate, and sample
// summaries and Kolmogorov-Smirnov statistics for the runtime
// simulator. Only the standard library is used.
package stats

import (
	"fmt"
	"math"

	"cdsf/internal/rng"
)

// Dist is a continuous univariate probability distribution.
type Dist interface {
	// Mean returns the expected value of the distribution.
	Mean() float64
	// Var returns the variance of the distribution.
	Var() float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Quantile returns the smallest x with CDF(x) >= p, for p in (0,1).
	Quantile(p float64) float64
	// Sample draws one variate using r.
	Sample(r *rng.Source) float64
}

// Normal is the normal (Gaussian) distribution N(Mu, Sigma^2).
type Normal struct {
	Mu    float64
	Sigma float64
}

// NewNormal returns a Normal with the given mean and standard deviation.
// It panics if sigma is not positive.
func NewNormal(mu, sigma float64) Normal {
	if sigma <= 0 {
		panic(fmt.Sprintf("stats: non-positive sigma %v", sigma))
	}
	return Normal{Mu: mu, Sigma: sigma}
}

// Mean returns Mu.
func (n Normal) Mean() float64 { return n.Mu }

// Var returns Sigma^2.
func (n Normal) Var() float64 { return n.Sigma * n.Sigma }

// CDF returns P(X <= x) using the error function.
func (n Normal) CDF(x float64) float64 {
	return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// Quantile returns the p-quantile. It panics unless 0 < p < 1.
func (n Normal) Quantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: quantile probability %v out of (0,1)", p))
	}
	return n.Mu + n.Sigma*math.Sqrt2*erfinv(2*p-1)
}

// Sample draws one normal variate.
func (n Normal) Sample(r *rng.Source) float64 {
	return n.Mu + n.Sigma*r.NormFloat64()
}

// Fill sets dst to the values len(dst) successive d.Sample(r) calls
// return, in order, and leaves r in the state those calls leave, so
// fills and Sample calls interleave freely on one stream. A Normal
// draws through rng's batched polar method, a Truncated rejects over
// blocks of its inner distribution's fill, and any other Dist samples
// one value at a time.
func Fill(d Dist, r *rng.Source, dst []float64) {
	switch d := d.(type) {
	case Normal:
		r.NormFloat64s(dst)
		for i, z := range dst {
			dst[i] = d.Mu + d.Sigma*z
		}
	case Truncated:
		d.fill(r, dst)
	default:
		for i := range dst {
			dst[i] = d.Sample(r)
		}
	}
}

// erfinv returns the inverse error function of x in (-1, 1), accurate to
// roughly 1e-12 after one Newton refinement of a rational initial guess
// (Giles, 2010).
func erfinv(x float64) float64 {
	if x <= -1 || x >= 1 {
		panic(fmt.Sprintf("stats: erfinv argument %v out of (-1,1)", x))
	}
	w := -math.Log((1 - x) * (1 + x))
	var p float64
	if w < 6.25 {
		w -= 3.125
		p = -3.6444120640178196996e-21
		p = -1.685059138182016589e-19 + p*w
		p = 1.2858480715256400167e-18 + p*w
		p = 1.115787767802518096e-17 + p*w
		p = -1.333171662854620906e-16 + p*w
		p = 2.0972767875968561637e-17 + p*w
		p = 6.6376381343583238325e-15 + p*w
		p = -4.0545662729752068639e-14 + p*w
		p = -8.1519341976054721522e-14 + p*w
		p = 2.6335093153082322977e-12 + p*w
		p = -1.2975133253453532498e-11 + p*w
		p = -5.4154120542946279317e-11 + p*w
		p = 1.051212273321532285e-09 + p*w
		p = -4.1126339803469836976e-09 + p*w
		p = -2.9070369957882005086e-08 + p*w
		p = 4.2347877827932403518e-07 + p*w
		p = -1.3654692000834678645e-06 + p*w
		p = -1.3882523362786468719e-05 + p*w
		p = 0.0001867342080340571352 + p*w
		p = -0.00074070253416626697512 + p*w
		p = -0.0060336708714301490533 + p*w
		p = 0.24015818242558961693 + p*w
		p = 1.6536545626831027356 + p*w
	} else if w < 16 {
		w = math.Sqrt(w) - 3.25
		p = 2.2137376921775787049e-09
		p = 9.0756561938885390979e-08 + p*w
		p = -2.7517406297064545428e-07 + p*w
		p = 1.8239629214389227755e-08 + p*w
		p = 1.5027403968909827627e-06 + p*w
		p = -4.013867526981545969e-06 + p*w
		p = 2.9234449089955446044e-06 + p*w
		p = 1.2475304481671778723e-05 + p*w
		p = -4.7318229009055733981e-05 + p*w
		p = 6.8284851459573175448e-05 + p*w
		p = 2.4031110387097893999e-05 + p*w
		p = -0.0003550375203628474796 + p*w
		p = 0.00095328937973738049703 + p*w
		p = -0.0016882755560235047313 + p*w
		p = 0.0024914420961078508066 + p*w
		p = -0.0037512085075692412107 + p*w
		p = 0.005370914553590063617 + p*w
		p = 1.0052589676941592334 + p*w
		p = 3.0838856104922207635 + p*w
	} else {
		w = math.Sqrt(w) - 5
		p = -2.7109920616438573243e-11
		p = -2.5556418169965252055e-10 + p*w
		p = 1.5076572693500548083e-09 + p*w
		p = -3.7894654401267369937e-09 + p*w
		p = 7.6157012080783393804e-09 + p*w
		p = -1.4960026627149240478e-08 + p*w
		p = 2.9147953450901080826e-08 + p*w
		p = -6.7711997758452339498e-08 + p*w
		p = 2.2900482228026654717e-07 + p*w
		p = -9.9298272942317002539e-07 + p*w
		p = 4.5260625972231537039e-06 + p*w
		p = -1.9681778105531670567e-05 + p*w
		p = 7.5995277030017761139e-05 + p*w
		p = -0.00021503011930044477347 + p*w
		p = -0.00013871931833623122026 + p*w
		p = 1.0103004648645343977 + p*w
		p = 4.8499064014085844221 + p*w
	}
	y := p * x
	// One Newton step: f(y) = erf(y) - x.
	e := math.Erf(y) - x
	y -= e / (2 / math.Sqrt(math.Pi) * math.Exp(-y*y))
	return y
}

// Exponential is the exponential distribution with rate Lambda.
type Exponential struct {
	Lambda float64
}

// NewExponential returns an Exponential with the given rate. It panics if
// lambda is not positive.
func NewExponential(lambda float64) Exponential {
	if lambda <= 0 {
		panic(fmt.Sprintf("stats: non-positive rate %v", lambda))
	}
	return Exponential{Lambda: lambda}
}

// Mean returns 1/Lambda.
func (e Exponential) Mean() float64 { return 1 / e.Lambda }

// Var returns 1/Lambda^2.
func (e Exponential) Var() float64 { return 1 / (e.Lambda * e.Lambda) }

// CDF returns P(X <= x).
func (e Exponential) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return 1 - math.Exp(-e.Lambda*x)
}

// Quantile returns the p-quantile. It panics unless 0 <= p < 1.
func (e Exponential) Quantile(p float64) float64 {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("stats: quantile probability %v out of [0,1)", p))
	}
	return -math.Log(1-p) / e.Lambda
}

// Sample draws one exponential variate.
func (e Exponential) Sample(r *rng.Source) float64 {
	return r.ExpFloat64() / e.Lambda
}

// Truncated wraps a distribution, rejecting samples outside [Lo, Hi].
// It is used to keep sampled execution times strictly positive without
// distorting the bulk of the distribution (the paper's sigma = mu/10
// normals put ~1e-23 mass below zero, but a simulator must never see a
// non-positive service time).
type Truncated struct {
	Dist   Dist
	Lo, Hi float64
}

// Mean returns the mean of the underlying distribution. For the narrow
// truncations used in this repository the difference is negligible.
func (t Truncated) Mean() float64 { return t.Dist.Mean() }

// Var returns the variance of the underlying distribution.
func (t Truncated) Var() float64 { return t.Dist.Var() }

// CDF returns the truncated CDF.
func (t Truncated) CDF(x float64) float64 {
	lo, hi := t.Dist.CDF(t.Lo), t.Dist.CDF(t.Hi)
	if hi <= lo {
		panic("stats: truncation removes all mass")
	}
	switch {
	case x < t.Lo:
		return 0
	case x > t.Hi:
		return 1
	default:
		return (t.Dist.CDF(x) - lo) / (hi - lo)
	}
}

// Quantile returns the truncated p-quantile, clamped to [Lo, Hi]: the
// inner quantile transform can round a p next to an end of the
// truncation out of it (over [1e-3, 1e3], Normal(1, 1e7) does for
// p below ~1e-12, and Normal(1, 1e14) rounds small p to values <= 0).
func (t Truncated) Quantile(p float64) float64 {
	lo, hi := t.Dist.CDF(t.Lo), t.Dist.CDF(t.Hi)
	return min(max(t.Dist.Quantile(lo+p*(hi-lo)), t.Lo), t.Hi)
}

// truncAttempts is how many draws Truncated.Sample rejects before it
// falls back to the quantile transform.
const truncAttempts = 1000

// Sample draws by rejection; for the narrow truncations used here the
// expected number of attempts is ~1.
func (t Truncated) Sample(r *rng.Source) float64 {
	for i := 0; i < truncAttempts; i++ {
		x := t.Dist.Sample(r)
		if x >= t.Lo && x <= t.Hi {
			return x
		}
	}
	// Pathological truncation: fall back to the quantile transform.
	return t.Quantile(r.Float64())
}

// fill is Fill for a Truncated: it fills blocks of dst from the inner
// distribution and keeps each accepted draw in the next open slot. A
// block never holds more draws than slots are open, nor more than the
// current slot has attempts left, so Sample would make every draw of
// it, and the quantile fallback draws its uniform where Sample does.
// Over a Normal the block holds standard normals and the accept loop
// applies mu + sigma*z itself, so each draw is touched once.
func (t Truncated) fill(r *rng.Source, dst []float64) {
	n, normal := t.Dist.(Normal)
	filled, tries := 0, 0
	for filled < len(dst) {
		block := dst[filled:min(len(dst), filled+truncAttempts-tries)]
		if normal {
			r.NormFloat64s(block)
		} else {
			Fill(t.Dist, r, block)
		}
		for _, x := range block {
			if normal {
				x = n.Mu + n.Sigma*x
			}
			if x >= t.Lo && x <= t.Hi {
				dst[filled] = x
				filled++
				tries = 0
			} else {
				tries++
			}
		}
		if tries == truncAttempts {
			dst[filled] = t.Quantile(r.Float64())
			filled++
			tries = 0
		}
	}
}
