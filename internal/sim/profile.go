package sim

import (
	"fmt"
	"math"
)

// Profile shapes the loop's iteration costs across the iteration space:
// the dedicated-time cost of iteration i (0-based of n) is the base
// draw multiplied by Profile(i, n). Classic DLS benchmarks are
// irregular in exactly this way — triangular costs (Mandelbrot rows),
// peaked kernels, alternating phases — and non-adaptive chunking
// interacts badly with systematic cost gradients because equal shares
// of the iteration space stop being equal shares of the work.
//
// A nil Profile means a flat loop (multiplier 1).
type Profile func(i, n int) float64

// FlatProfile is the uniform loop: every iteration costs the same in
// expectation.
func FlatProfile(int, int) float64 { return 1 }

// IncreasingProfile grows linearly from 0.5x at the start to 1.5x at
// the end (mean 1), the "triangular" workload of the factoring papers.
func IncreasingProfile(i, n int) float64 {
	if n <= 1 {
		return 1
	}
	return 0.5 + float64(i)/float64(n-1)
}

// DecreasingProfile is the mirrored triangle: expensive iterations
// first.
func DecreasingProfile(i, n int) float64 {
	if n <= 1 {
		return 1
	}
	return 1.5 - float64(i)/float64(n-1)
}

// PeakedProfile concentrates cost in the middle of the iteration space
// (a Gaussian bump peaking at 2x over a 0.72x floor, mean ~1), the
// "kernel in the center" pattern of stencil and convolution loops.
func PeakedProfile(i, n int) float64 {
	if n <= 1 {
		return 1
	}
	x := float64(i)/float64(n-1) - 0.5
	return 0.72 + 1.28*math.Exp(-x*x/(2*0.15*0.15))*0.5
}

// AlternatingProfile switches between 0.5x and 1.5x in blocks of one
// sixteenth of the iteration space — phase-structured loops.
func AlternatingProfile(i, n int) float64 {
	block := n / 16
	if block < 1 {
		block = 1
	}
	if (i/block)%2 == 0 {
		return 0.5
	}
	return 1.5
}

// profileByName resolves the built-in profiles for the CLI tools.
var profiles = map[string]Profile{
	"flat":        FlatProfile,
	"increasing":  IncreasingProfile,
	"decreasing":  DecreasingProfile,
	"peaked":      PeakedProfile,
	"alternating": AlternatingProfile,
}

// ProfileByName returns a built-in profile by name: flat, increasing,
// decreasing, peaked, alternating.
func ProfileByName(name string) (Profile, error) {
	p, ok := profiles[name]
	if !ok {
		return nil, fmt.Errorf("sim: unknown profile %q (have flat, increasing, decreasing, peaked, alternating)", name)
	}
	return p, nil
}
