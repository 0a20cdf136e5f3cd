package ra

import (
	"context"
	"fmt"

	"cdsf/internal/sysmodel"
)

// This file defines the cancellation surface of the Stage-I search
// engine. Every Heuristic searches under a context; SolveContext is the
// one entry point the CLIs, the service and the Stage-II framework use.
// Cancellation is cooperative: the worker pools stop claiming tasks,
// the tight enumeration loops check the context every
// cancelCheckStride visited nodes, and an interrupted search returns an
// error wrapping context.Canceled or context.DeadlineExceeded instead
// of a (possibly non-deterministic) partial winner. A context that is
// never cancelled costs a periodic ctx.Err() call and changes no
// result: seeded searches are bit-identical under any such context.

// cancelCheckStride is the number of visited nodes between context
// checks in the tight scan loops (exhaustive enumeration nodes, naive
// equal-share leaves). At roughly a microsecond per node this bounds
// the per-partition drain to a few milliseconds.
const cancelCheckStride = 4096

// metaCheckStride is the number of tabu steps between context checks.
const metaCheckStride = 64

// SolveContext runs heuristic h on p under ctx, refusing an already
// cancelled context up front. A nil ctx counts as context.Background().
func SolveContext(ctx context.Context, h Heuristic, p *Problem) (sysmodel.Allocation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("ra: %s: %w", h.Name(), err)
	}
	return h.AllocateContext(ctx, p)
}

// searchErr wraps a context error with the name of the interrupted
// search.
func searchErr(what string, err error) error {
	return fmt.Errorf("ra: %s: %w", what, err)
}
