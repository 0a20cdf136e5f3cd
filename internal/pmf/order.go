package pmf

import (
	"fmt"
	"math"
)

// This file provides order statistics of i.i.d. draws — the analytic
// machinery behind the runtime behaviour of STATIC scheduling. When a
// loop is split into one fixed chunk per processor and each processor
// independently draws its availability, the application finishes at the
// *maximum* of n completion times, not at the completion time of one
// typical processor. E[max] can exceed E[T] substantially (the paper's
// scenario 2: a 74.5%-robust allocation still misses the deadline at
// runtime under STATIC), and these functions quantify that gap exactly.

// MaxN returns the PMF of the maximum of n independent draws from p.
// Its CDF is F(x)^n, computed exactly on p's support. It panics if
// n < 1.
func MaxN(p PMF, n int) PMF {
	if n < 1 {
		panic(fmt.Sprintf("pmf: MaxN with n=%d", n))
	}
	if n == 1 {
		return p
	}
	ps := make([]Pulse, 0, p.Len())
	prev := 0.0
	cdf := 0.0
	for _, pl := range p.pulses {
		cdf += pl.Prob
		fn := math.Pow(cdf, float64(n))
		ps = append(ps, Pulse{Value: pl.Value, Prob: fn - prev})
		prev = fn
	}
	return MustNew(ps)
}
