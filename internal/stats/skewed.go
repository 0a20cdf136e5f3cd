package stats

import (
	"fmt"
	"math"

	"cdsf/internal/rng"
)

// This file adds the right-skewed distributions the DLS literature uses
// for irregular iteration times: log-normal and gamma. Scientific loop
// bodies rarely have symmetric costs — occasional slow iterations
// (cache misses, deeper recursion, more solver steps) produce long
// right tails that stress non-adaptive chunking harder than a normal
// model does.

// LogNormal is the distribution of exp(N(MuLog, SigmaLog^2)).
type LogNormal struct {
	MuLog    float64
	SigmaLog float64
}

// LogNormalFromMoments returns the log-normal with the given mean and
// standard deviation (real-space). It panics unless both are positive.
func LogNormalFromMoments(mean, stddev float64) LogNormal {
	if mean <= 0 || stddev <= 0 {
		panic(fmt.Sprintf("stats: invalid log-normal moments (%v, %v)", mean, stddev))
	}
	cv2 := (stddev / mean) * (stddev / mean)
	sigma2 := math.Log(1 + cv2)
	return LogNormal{
		MuLog:    math.Log(mean) - sigma2/2,
		SigmaLog: math.Sqrt(sigma2),
	}
}

// Mean returns exp(MuLog + SigmaLog^2/2).
func (l LogNormal) Mean() float64 {
	return math.Exp(l.MuLog + l.SigmaLog*l.SigmaLog/2)
}

// Var returns (exp(SigmaLog^2)-1) * exp(2MuLog + SigmaLog^2).
func (l LogNormal) Var() float64 {
	s2 := l.SigmaLog * l.SigmaLog
	return (math.Exp(s2) - 1) * math.Exp(2*l.MuLog+s2)
}

// CDF returns P(X <= x).
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return Normal{Mu: l.MuLog, Sigma: l.SigmaLog}.CDF(math.Log(x))
}

// Quantile returns the p-quantile for p in (0,1).
func (l LogNormal) Quantile(p float64) float64 {
	return math.Exp(Normal{Mu: l.MuLog, Sigma: l.SigmaLog}.Quantile(p))
}

// Sample draws one variate.
func (l LogNormal) Sample(r *rng.Source) float64 {
	return math.Exp(l.MuLog + l.SigmaLog*r.NormFloat64())
}

// Gamma is the gamma distribution with shape K and scale Theta.
type Gamma struct {
	K     float64
	Theta float64
}

// GammaFromMoments returns the Gamma with the given mean and standard
// deviation. It panics unless both are positive.
func GammaFromMoments(mean, stddev float64) Gamma {
	if mean <= 0 || stddev <= 0 {
		panic(fmt.Sprintf("stats: invalid gamma moments (%v, %v)", mean, stddev))
	}
	v := stddev * stddev
	return Gamma{K: mean * mean / v, Theta: v / mean}
}

// Mean returns K*Theta.
func (g Gamma) Mean() float64 { return g.K * g.Theta }

// Var returns K*Theta^2.
func (g Gamma) Var() float64 { return g.K * g.Theta * g.Theta }

// CDF returns the regularized lower incomplete gamma P(K, x/Theta),
// evaluated by series/continued-fraction expansion (Numerical Recipes
// gammp).
func (g Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return regularizedGammaP(g.K, x/g.Theta)
}

// Quantile returns the p-quantile for p in (0,1) by bisection on the
// CDF (robust, ~1e-10 accuracy).
func (g Gamma) Quantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: quantile probability %v out of (0,1)", p))
	}
	// Bracket: mean + enough standard deviations.
	lo, hi := 0.0, g.Mean()+20*math.Sqrt(g.Var())
	for g.CDF(hi) < p {
		hi *= 2
	}
	for i := 0; i < 200 && hi-lo > 1e-12*hi; i++ {
		mid := (lo + hi) / 2
		if g.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Sample draws one variate with the Marsaglia-Tsang squeeze method
// (boosted for K < 1).
func (g Gamma) Sample(r *rng.Source) float64 {
	k := g.K
	boost := 1.0
	if k < 1 {
		// X_k = X_{k+1} * U^{1/k}.
		boost = math.Pow(r.Float64()+1e-300, 1/k)
		k++
	}
	d := k - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return boost * d * v * g.Theta
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return boost * d * v * g.Theta
		}
	}
}

// regularizedGammaP computes P(a, x) = gamma_lower(a, x) / Gamma(a).
func regularizedGammaP(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		panic(fmt.Sprintf("stats: regularizedGammaP(%v, %v)", a, x))
	case x == 0:
		return 0
	case x < a+1:
		return gammaSeries(a, x)
	default:
		return 1 - gammaContinuedFraction(a, x)
	}
}

// gammaSeries evaluates P(a,x) by its power series.
func gammaSeries(a, x float64) float64 {
	lgamma, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lgamma)
}

// gammaContinuedFraction evaluates Q(a,x) = 1 - P(a,x) by Lentz's
// continued fraction.
func gammaContinuedFraction(a, x float64) float64 {
	lgamma, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lgamma) * h
}
