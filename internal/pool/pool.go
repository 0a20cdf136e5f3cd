// Package pool is the one bounded worker pool of the engines: Stage I's
// evaluation table and exhaustive partitions (internal/ra), Stage II's
// repetitions (internal/sim) and the experiment grids
// (internal/experiments) all fan their independent tasks out through
// ForEach.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(w, i) for every task i in [0, n) on at most workers
// goroutines (non-positive means runtime.NumCPU()); w in [0, workers)
// names the goroutine running the task, so a caller can keep scratch
// per goroutine. With one worker (or one task) the tasks run in order
// on the calling goroutine, as w = 0. Tasks are claimed from an atomic
// counter, so each runs exactly once; fn must write only its own
// task's slot of any shared output, which keeps that output the same
// for any worker count.
//
// No task is claimed once ctx is done: in-flight tasks finish (or abort
// at their own checkpoints) and ForEach returns ctx.Err(), leaving the
// shared output incomplete.
func ForEach(ctx context.Context, workers, n int, fn func(w, i int)) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(0, i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
